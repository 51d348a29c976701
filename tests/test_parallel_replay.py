"""Pooled replay through SimPool and TraceCache concurrency hardening."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.eval.fig6_scaling import render_fig6, run_fig6
from repro.eval.fig7_latency import render_fig7, run_fig7
from repro.eval.table3_ppa import render_table3, run_table3
from repro.kernels import build_fmatmul
from repro.params import Ara2Config, AraXLConfig
from repro.sim import (CaptureTask, FaultPlan, SimPool, TraceCache,
                       TraceStore, replay_trace, run_pipeline)
from repro.sim.trace_cache import DISK_FORMAT_VERSION, disk_path
import repro.sim.parallel as parallel_mod


def _fmatmul_capture(config, cache=None, **kw):
    kw.setdefault("m", 8)
    kw.setdefault("k", 16)
    run = build_fmatmul(config, 64, **kw)
    captured = run.capture(config, cache=cache, verify=False)
    return run, captured


def _fmatmul_task(config):
    return CaptureTask.for_kernel("fmatmul", config, 64, {"m": 8, "k": 16})


def _serial(captures, replays):
    return run_pipeline(captures, replays,
                        SimPool(workers=1, cache=TraceCache()))


SMALL, SMALL_XL = Ara2Config(lanes=4), AraXLConfig(lanes=4)
BIG, BIG_XL = Ara2Config(lanes=8), AraXLConfig(lanes=8)
#: Two captures (one per VLEN), each replayed on two machines.
CAPTURES = [_fmatmul_task(SMALL), _fmatmul_task(BIG)]
REPLAYS = [(SMALL, 0), (SMALL_XL, 0), (BIG, 1), (BIG_XL, 1)]


class TestReplayPool:
    """The replay side of :meth:`SimPool.run`: ordering, in-process
    serving, disk rehydration, payload shipping and worker recapture."""

    def test_results_in_task_order_across_workers(self):
        """Interleaved replays over two VLEN groups come back in order."""
        replays = [(BIG, 1), (SMALL, 0), (BIG_XL, 1), (SMALL_XL, 0)]
        pooled = run_pipeline(CAPTURES, replays, SimPool(workers=2))
        assert pooled == _serial(CAPTURES, replays)
        _, cap_small = _fmatmul_capture(SMALL)
        assert pooled[1] == replay_trace(SMALL, cap_small).timing

    def test_workers_one_never_spawns_processes(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("workers=1 must not build a process pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        configs = [SMALL, SMALL_XL, AraXLConfig(lanes=4, ring_hop_latency=4)]
        reports = run_pipeline([_fmatmul_task(SMALL)],
                               [(cfg, 0) for cfg in configs],
                               SimPool(workers=1))
        assert len(reports) == 3 and len(set(map(id, reports))) == 3
        _, captured = _fmatmul_capture(SMALL)
        assert reports == [replay_trace(cfg, captured).timing
                           for cfg in configs]

    def test_empty_batch(self, monkeypatch):
        """Captures with no replays return nothing and, with the capture
        phase in the parent, never build an executor."""
        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("no replays, no pool"))
        assert run_pipeline(CAPTURES, [], SimPool(workers=2)) == []

    def test_disk_backed_workers_rehydrate_and_report_stats(self, tmp_path):
        """Keys on disk ship no payload; worker stats aggregate per pid."""
        serial = run_pipeline(CAPTURES, REPLAYS, SimPool(
            workers=1, cache=TraceCache(disk_dir=tmp_path)))
        pool = SimPool(workers=2, cache=TraceCache(disk_dir=tmp_path))
        assert run_pipeline(CAPTURES, REPLAYS, pool) == serial
        stats = pool.stats
        assert stats["workers"] >= 1
        assert stats["disk_hits"] >= 1  # workers rehydrated from disk
        assert stats["misses"] == 0
        assert sum(s["disk_hits"] for s in stats["per_worker"].values()) \
            == stats["disk_hits"]

    def test_missing_disk_entry_falls_back_to_payload(self):
        """Without a shared disk store every point job of a key the
        parent captured ships its trace as a payload; workers never
        look the key up."""
        pool = SimPool(workers=2, cache=TraceCache())
        assert run_pipeline(CAPTURES, REPLAYS, pool) \
            == _serial(CAPTURES, REPLAYS)
        assert pool.stats["workers"] >= 1
        assert (pool.stats["hits"], pool.stats["disk_hits"],
                pool.stats["misses"]) == (0, 0, 0)

    def test_point_job_miss_captures_and_reports_its_lookup(
            self, monkeypatch):
        """A worker whose cache misses captures the point itself, ships
        the entry back when no store holds it, and reports the miss."""
        monkeypatch.setattr(parallel_mod, "_WORKER_CACHE", TraceCache())
        pid, fresh, entry, reports, stats, _, _ = parallel_mod._point_job(
            CAPTURES[0], None, [SMALL, SMALL_XL])
        assert fresh and entry is not None
        assert stats["misses"] == 1
        assert reports == _serial(CAPTURES, REPLAYS)[:2]

    def test_stale_disk_entry_is_recaptured_by_the_worker(self, tmp_path):
        """Entries that exist but fail to load are recaptured where
        they are read: the parent's store writes every entry
        corrupted, so each worker misses on disk and captures the key
        itself, with no resend, fallback or second parent capture.

        The parent captures both keys, so the replays go out as three
        payload-free jobs (the first key's two configs split over the
        idle pool, the second key's pair as one job): three worker
        lookups, each reported once.  A lookup misses, or hits the
        memory or entry of a worker that recaptured the key before it.
        """
        store = TraceStore(disk_dir=tmp_path,
                           fault_plan=FaultPlan(seed=1, corrupt_rate=1.0))
        pool = SimPool(workers=2, capture_workers=1, cache=store)
        assert run_pipeline(CAPTURES, REPLAYS, pool) \
            == _serial(CAPTURES, REPLAYS)
        stats = pool.stats
        assert stats["hits"] + stats["disk_hits"] + stats["misses"] == 3
        assert stats["misses"] >= 2  # every key's first lookup
        assert store.stats["misses"] == 2
        assert store.stats["remote_puts"] == 0
        assert pool.fault_log.fallbacks == 0


class TestParallelSweepsByteIdentical:
    """Fan-out must not change a single byte of any rendered experiment."""

    def test_fig6_parallel_matches_serial(self):
        kw = dict(kernels=("fmatmul", "fdotproduct"), bytes_per_lane=(64,),
                  machines=[Ara2Config(lanes=8), AraXLConfig(lanes=8),
                            AraXLConfig(lanes=16)],
                  scale="reduced")
        serial = run_fig6(**kw, pool=SimPool(workers=1))
        parallel = run_fig6(**kw, pool=SimPool(workers=3))
        assert render_fig6(parallel) == render_fig6(serial)
        assert parallel == serial

    def test_fig7_parallel_matches_serial(self):
        kw = dict(kernels=("fmatmul", "softmax"), bytes_per_lane=(64, 128),
                  lanes=8, scale="reduced")
        serial = run_fig7(**kw, pool=SimPool(workers=1))
        parallel = run_fig7(**kw, pool=SimPool(workers=4))
        assert render_fig7(parallel) == render_fig7(serial)
        assert parallel == serial

    def test_table3_parallel_matches_serial(self):
        kw = dict(configs=[Ara2Config(lanes=8), AraXLConfig(lanes=8),
                           AraXLConfig(lanes=16)],
                  scale="reduced")
        serial = run_table3(**kw, pool=SimPool(workers=1))
        parallel = run_table3(**kw, pool=SimPool(workers=2))
        assert render_table3(parallel) == render_table3(serial)

    def test_fig6_baseline_position_is_irrelevant(self):
        """Machines listed before 8L-Ara2 still get a real scaling factor."""
        kw = dict(kernels=("fmatmul",), bytes_per_lane=(64,),
                  scale="reduced")
        first = run_fig6(machines=[Ara2Config(lanes=8),
                                   AraXLConfig(lanes=16)], **kw)
        last = run_fig6(machines=[AraXLConfig(lanes=16),
                                  Ara2Config(lanes=8)], **kw)
        by_machine_first = {p.machine: p.scaling_vs_8l_ara2 for p in first}
        by_machine_last = {p.machine: p.scaling_vs_8l_ara2 for p in last}
        assert by_machine_first == by_machine_last
        assert by_machine_last["16L-AraXL"] > 0.0


# ----------------------------------------------------------------------
# Concurrent disk-cache hardening
# ----------------------------------------------------------------------
def _hammer_disk_cache(disk_dir: str, iterations: int) -> None:
    """Worker: repeatedly rewrite and reread the same keys in one dir."""
    cache = TraceCache(disk_dir=disk_dir)
    cfg = Ara2Config(lanes=4)
    run = build_fmatmul(cfg, 64, m=8, k=16)
    captured = run.capture(cfg, verify=False)
    key = run.trace_key(cfg)
    for _ in range(iterations):
        cache.put(key, captured)
        entry = TraceCache(disk_dir=disk_dir).get(key)  # bypass memory LRU
        assert entry is not None  # never a torn read


class TestDiskCacheConcurrency:
    def test_concurrent_writers_never_corrupt(self, tmp_path):
        """Two processes hammering one disk_dir leave only whole files."""
        procs = [multiprocessing.Process(target=_hammer_disk_cache,
                                         args=(str(tmp_path), 30))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        files = list(tmp_path.glob("trace_*.pkl"))
        assert files, "writers produced no cache files"
        assert not list(tmp_path.glob("*.tmp")), "orphaned temp files"
        for path in files:
            with path.open("rb") as fh:
                envelope = pickle.load(fh)  # must always unpickle whole
            assert envelope["format"] == DISK_FORMAT_VERSION
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        reader = TraceCache(disk_dir=tmp_path)
        entry = reader.get(run.trace_key(cfg))
        assert entry is not None
        assert replay_trace(cfg, entry).timing == \
            run.run(cfg, verify=False).timing


class TestDiskFormatVersioning:
    def _capture(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        cache = TraceCache(disk_dir=tmp_path)
        captured = run.capture(cfg, cache=cache, verify=False)
        return cfg, run, captured, run.trace_key(cfg)

    def test_version_mismatch_is_a_miss_then_overwritten(self, tmp_path):
        cfg, run, captured, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        with path.open("rb") as fh:
            envelope = pickle.load(fh)
        envelope["format"] = DISK_FORMAT_VERSION - 1
        with path.open("wb") as fh:
            pickle.dump(envelope, fh)

        stale = TraceCache(disk_dir=tmp_path)
        assert not stale.probe(key)  # a probe validates the envelope too
        assert stale.get(key) is None
        assert stale.stats["misses"] == 1 and stale.stats["disk_hits"] == 0
        # The recapture path (put) overwrites the stale file in place.
        stale.put(key, captured)
        assert TraceCache(disk_dir=tmp_path).get(key) is not None

    def test_schema_drift_is_a_miss(self, tmp_path):
        _, _, _, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        with path.open("rb") as fh:
            envelope = pickle.load(fh)
        envelope["schema"] = envelope["schema"] + ("new_field",)
        with path.open("wb") as fh:
            pickle.dump(envelope, fh)
        assert TraceCache(disk_dir=tmp_path).get(key) is None

    def test_pre_envelope_bare_pickle_is_a_miss(self, tmp_path):
        cfg, run, captured, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        with path.open("wb") as fh:  # old v1 format: bare ExecResult
            pickle.dump(captured, fh)
        assert TraceCache(disk_dir=tmp_path).get(key) is None

    def test_truncated_file_is_a_miss(self, tmp_path):
        _, _, _, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        path.write_bytes(path.read_bytes()[:50])
        cache = TraceCache(disk_dir=tmp_path)
        assert not cache.probe(key)
        assert cache.get(key) is None
        assert cache.stats["misses"] == 1


class TestCacheMembershipAndStats:
    def test_contains_consults_disk_without_counting(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        writer = TraceCache(disk_dir=tmp_path)
        run.capture(cfg, cache=writer, verify=False)
        key = run.trace_key(cfg)

        fresh = TraceCache(disk_dir=tmp_path)  # empty memory, warm disk
        assert fresh.probe(key)
        assert fresh.stats["lookups"] == 0  # membership is not a lookup
        memory_only = TraceCache()
        assert not memory_only.probe(key)

    def test_disk_hits_split_from_memory_hits(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        writer = TraceCache(disk_dir=tmp_path)
        run.capture(cfg, cache=writer, verify=False)
        key = run.trace_key(cfg)

        cache = TraceCache(disk_dir=tmp_path)
        assert cache.get(key) is not None  # disk rehydration
        assert cache.get(key) is not None  # now a memory hit
        stats = cache.stats
        assert stats["disk_hits"] == 1 and stats["hits"] == 1
        assert stats["misses"] == 0 and stats["lookups"] == 2
        assert stats["hit_rate"] == pytest.approx(0.5)  # in-memory rate
