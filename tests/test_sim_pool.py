"""SimPool: one budget, tagged jobs, adaptive chunking, phase timing.

Pins the tentpole invariants of the shared capture/replay pool:

* **Byte-identity** — every sweep renders identically through any
  ``SimPool`` sizing (the five-sweep serial-vs-pooled harness lives in
  ``test_capture_parallel``; here the pool is passed explicitly so its
  stats can be asserted too).
* **Oversubscription cap** — one pipeline builds exactly one executor,
  sized by the single ``workers=`` budget, and both job kinds run on
  it; ``capture_workers`` clamps to the budget.
* **Adaptive chunking** — replay submissions split by live queue depth
  (pure-function determinism), and results stay in replay order under
  any schedule.
* **PipelineStats** — per-phase points/seconds aggregate correctly,
  pooled or in-process.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.eval import (run_experiment, run_fig7, run_knob_sweep,
                        run_table1, run_table3)
from repro.eval.fig6_scaling import render_fig6, run_fig6
from repro.eval.fuzz import run_fuzz
from repro.params import Ara2Config, AraXLConfig
from repro.sim import CaptureTask, SimPool, TraceCache, TraceStore
import repro.sim.parallel as parallel_mod

from test_capture_parallel import SWEEPS


def _small_fig6(pool):
    return render_fig6(run_fig6(
        kernels=("fmatmul", "fdotproduct"), bytes_per_lane=(64,),
        machines=[Ara2Config(lanes=8), AraXLConfig(lanes=8),
                  AraXLConfig(lanes=16)],
        scale="reduced", pool=pool))


# ----------------------------------------------------------------------
# Construction and knob semantics
# ----------------------------------------------------------------------
class TestSimPoolKnobs:
    def test_defaults_and_validation(self):
        assert SimPool().workers == 1
        assert SimPool(workers=None).workers \
            == parallel_mod.autodetect_workers() >= 1
        with pytest.raises(ValueError):
            SimPool(workers=0)
        with pytest.raises(ValueError):
            SimPool(workers=2, capture_workers=0)

    def test_capture_split_clamps_to_budget(self):
        """The soft split can never promise more slots than exist."""
        assert SimPool(workers=2, capture_workers=5).capture_workers == 2
        assert SimPool(workers=4, capture_workers=2).capture_workers == 2
        assert SimPool(workers=3).capture_workers == 1  # the default
        assert SimPool(workers=3, capture_workers=None).capture_workers <= 3
        assert SimPool(workers=1, capture_workers=8).capture_workers == 1

    def test_no_capacity_knob(self):
        """Worker caches take the default LRU capacity."""
        assert "capacity" not in inspect.signature(SimPool).parameters


#: Pool-building knobs no sweep takes: its caller builds the pool.
_REMOVED_KNOBS = {"trace_cache", "trace_store", "workers",
                  "capture_workers", "job_timeout"}


@pytest.mark.parametrize("entry", [
    run_fig6, run_fig7, run_table1, run_table3, run_knob_sweep, run_fuzz,
    run_experiment], ids=lambda f: f.__name__)
def test_sweeps_take_one_pool_argument(entry):
    """Each sweep and the registry take one ``pool`` (default None)
    and none of the knobs it replaced."""
    params = inspect.signature(entry).parameters
    assert params["pool"].default is None
    assert [name for name in params if "pool" in name] == ["pool"]
    assert not _REMOVED_KNOBS & set(params)


# ----------------------------------------------------------------------
# One executor, sized by the budget, serving both tags
# ----------------------------------------------------------------------
class _RecordingExecutor:
    """Wraps the real executor, recording sizing and submission tags."""

    instances: list["_RecordingExecutor"] = []

    def __init__(self, max_workers=None, **kwargs):
        self.max_workers = max_workers
        self.tags: list[str] = []
        self._real = ProcessPoolExecutor(max_workers=max_workers, **kwargs)
        _RecordingExecutor.instances.append(self)

    def submit(self, fn, *args, **kwargs):
        self.tags.append(args[0] if args else "?")
        return self._real.submit(fn, *args, **kwargs)

    def shutdown(self, **kwargs):
        self._real.shutdown(**kwargs)


class TestSingleSharedExecutor:
    def test_one_executor_caps_total_processes(self, tmp_path, monkeypatch):
        """A cold pooled pipeline builds exactly ONE executor, sized by
        the workers budget, and runs capture AND replay jobs on it —
        the old two-pool design held capture_workers + workers
        processes during the overlap window."""
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor",
                            _RecordingExecutor)
        _RecordingExecutor.instances = []
        pool = SimPool(workers=2, capture_workers=5,
                       cache=TraceStore(disk_dir=tmp_path))
        serial = _small_fig6(SimPool(workers=1, cache=TraceCache()))
        pooled = _small_fig6(pool)
        assert pooled == serial
        assert len(_RecordingExecutor.instances) == 1
        recorder = _RecordingExecutor.instances[0]
        assert recorder.max_workers == 2  # the single budget, not 2 + 5
        assert "capture" in recorder.tags
        assert "replay" in recorder.tags

    def test_workers_one_never_builds_an_executor(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("workers=1 must stay in-process"))
        pool = SimPool(workers=1, capture_workers=4,
                       cache=TraceStore(disk_dir=tmp_path))
        _small_fig6(pool)


# ----------------------------------------------------------------------
# Adaptive replay chunking
# ----------------------------------------------------------------------
class TestAdaptiveChunks:
    def test_payload_submissions_never_split(self):
        pool = SimPool(workers=4)
        assert pool._adaptive_chunks(8, on_disk=False, queue_depth=0) == 1

    def test_busy_pool_gets_one_job(self):
        """Queueing extra chunks behind a full pool buys nothing."""
        pool = SimPool(workers=4)
        assert pool._adaptive_chunks(8, on_disk=True, queue_depth=4) == 1
        assert pool._adaptive_chunks(8, on_disk=True, queue_depth=9) == 1

    def test_idle_pool_fills_its_slots(self):
        pool = SimPool(workers=4)
        assert pool._adaptive_chunks(8, on_disk=True, queue_depth=0) == 4
        assert pool._adaptive_chunks(8, on_disk=True, queue_depth=3) == 1
        assert pool._adaptive_chunks(8, on_disk=True, queue_depth=2) == 2

    def test_never_more_chunks_than_configs(self):
        pool = SimPool(workers=8)
        assert pool._adaptive_chunks(3, on_disk=True, queue_depth=0) == 3
        assert pool._adaptive_chunks(1, on_disk=True, queue_depth=0) == 1

    def test_deterministic_pure_function(self):
        pool = SimPool(workers=4)
        grid = [(n, d) for n in (1, 2, 5, 9) for d in (0, 1, 3, 4, 7)]
        first = [pool._adaptive_chunks(n, True, d) for n, d in grid]
        second = [pool._adaptive_chunks(n, True, d) for n, d in grid]
        assert first == second


# ----------------------------------------------------------------------
# Byte-identity with explicitly supplied pools, all five sweeps
# ----------------------------------------------------------------------
class TestSweepIdentityAcrossPoolSizings:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_identical_for_any_sizing(self, name, tmp_path):
        """Serial, replay-only fan-out, and full shared-pool schedules
        render the same bytes (results order is replay order, not
        completion order)."""
        sweep = SWEEPS[name]

        def pool(subdir, workers, capture_workers):
            return SimPool(workers=workers, capture_workers=capture_workers,
                           cache=TraceStore(disk_dir=tmp_path / subdir))

        serial = sweep(pool("serial", 1, 1))
        replay_only = sweep(pool("r", 3, 1))
        assert replay_only == serial
        shared = sweep(pool("s", 2, 2))
        assert shared == serial


# ----------------------------------------------------------------------
# PipelineStats accounting
# ----------------------------------------------------------------------
class TestPipelineStats:
    def _counts(self, pool):
        return (pool.pipeline_stats.capture_points,
                pool.pipeline_stats.replay_points)

    def test_serial_pipeline_counts_points(self):
        pool = SimPool(workers=1, cache=TraceCache())
        _small_fig6(pool)
        # 2 kernels x 1 size: 2 distinct VLEN groups (8L-Ara2/8L-AraXL
        # share one), 2 captures per kernel... = 4 captures, 6 replays.
        assert self._counts(pool) == (4, 6)
        assert pool.pipeline_stats.capture_seconds > 0.0
        assert pool.pipeline_stats.replay_seconds > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_replays_each_machine_identity_once(self, workers):
        """Configs differing only in display name share one replay."""
        task = CaptureTask.for_kernel("fdotproduct", AraXLConfig(lanes=8),
                                      64)
        alias = AraXLConfig(lanes=8, label="alias-8L")
        pool = SimPool(workers=workers, cache=TraceCache())
        reports = pool.run([task], [(task.config, 0), (alias, 0),
                                    (AraXLConfig(lanes=8), 0)])
        assert reports[0] is reports[1] is reports[2]
        assert self._counts(pool) == (1, 1)

    def test_pooled_pipeline_counts_match_serial(self, tmp_path):
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path))
        _small_fig6(pool)
        assert self._counts(pool) == (4, 6)

    def test_warm_pipeline_serves_captures_in_parent(self, tmp_path):
        store_dir = tmp_path / "warm"
        _small_fig6(SimPool(workers=1, cache=TraceStore(disk_dir=store_dir)))
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=store_dir))
        _small_fig6(pool)
        # Warm keys never reach the workers' capture path: the parent
        # reads each of them from disk and adopts no worker capture.
        assert pool.pipeline_stats.capture_points == 4
        assert pool.cache.stats["disk_hits"] == 4
        assert pool.cache.stats["remote_puts"] == 0


# ----------------------------------------------------------------------
# Degradation: the shared pool must finish the sweep, never fail it
# ----------------------------------------------------------------------
class TestSharedPoolDegradation:
    def test_dead_workers_degrade_both_phases(self, tmp_path, monkeypatch):
        """With every pooled job unrunnable (unpicklable entry point ->
        all futures raise), captures AND replays fall back in-process
        and the rendered sweep is still byte-identical to serial —
        before the shared pool, a worker death could only break one
        phase; now it must break neither."""
        serial = _small_fig6(SimPool(workers=1, cache=TraceCache()))
        monkeypatch.setattr(parallel_mod, "_run_job",
                            lambda *a: (_ for _ in ()).throw(RuntimeError))
        store = TraceStore(disk_dir=tmp_path)
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        assert _small_fig6(pool) == serial
        assert pool.fault_log.fallbacks > 0
        # Every capture ran in the parent; no worker capture was adopted.
        assert store.stats["misses"] == 4
        assert store.stats["remote_puts"] == 0
        # Accounting stays points-served, not attempts: 4 distinct
        # operating points, 6 replays, whatever the degradation path.
        assert pool.pipeline_stats.capture_points == 4
        assert pool.pipeline_stats.replay_points == 6

    def test_gc_evicted_adoption_counts_points_once(self, tmp_path,
                                                    monkeypatch):
        """A worker capture whose entry the GC eats before adoption is
        re-captured locally — extra seconds, but the operating point is
        only counted once (bench assertions rely on points == points)."""
        monkeypatch.setattr(TraceStore, "ingest_remote",
                            lambda self, key, payload=None: None)
        store = TraceStore(disk_dir=tmp_path)
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        _small_fig6(pool)
        assert pool.fault_log.fallbacks == 4
        assert pool.pipeline_stats.capture_points == 4
        # Nothing was adopted; each fallback re-capture is served by
        # the entry the worker had already written.
        assert store.stats["remote_puts"] == 0
        assert store.stats["misses"] == 0

    def test_duplicate_key_captures_collapse(self, tmp_path):
        """Two capture tasks resolving to one trace key run ONE
        functional capture; the shared result serves both plans."""
        from repro.sim import CaptureTask, run_pipeline

        cfg_a, cfg_b = Ara2Config(lanes=8), AraXLConfig(lanes=8)
        # Same VLEN, same program, same setup: equal trace keys.
        captures = [CaptureTask.for_kernel("fmatmul", cfg_a, 64,
                                           {"m": 8, "k": 16}),
                    CaptureTask.for_kernel("fmatmul", cfg_b, 64,
                                           {"m": 8, "k": 16})]
        assert captures[0].key() == captures[1].key()
        replays = [(cfg_a, 0), (cfg_b, 1)]
        store = TraceStore(disk_dir=tmp_path)
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        reports = run_pipeline(captures, replays, pool)
        assert all(r is not None for r in reports)
        assert reports[0] != reports[1]  # different timing models
        stats = store.stats
        assert stats["misses"] + stats["remote_puts"] == 1  # one capture
        assert pool.pipeline_stats.capture_points == 1
