"""Deterministic fault injection: chaos sweeps + every recovery path.

The chaos harness re-runs the five-sweep byte-identity suite from
``test_capture_parallel`` under a seeded :class:`~repro.sim.faults
.FaultPlan` injecting worker crashes, hangs, corrupted envelope
payloads and ``ENOSPC`` all at once — the rendered output must still be
byte-identical to a clean serial run, with the recoveries showing up in
the pool's :class:`~repro.sim.faults.FaultLog` instead of the results.
The unit tests below then pin each rung of the recovery ladder on its
own: timeout-reassign, retry + executor rebuild, poison-job quarantine,
checksum purge-on-read (and on GC), ``ENOSPC`` memory-only degradation
with its one-shot warning, transient-I/O retry, and the whole-pool
serial degradation latch.
"""

from __future__ import annotations

import pickle
import shutil
import warnings
from concurrent.futures import Future

import pytest

from repro.params import Ara2Config, AraXLConfig
from repro.sim import (CaptureTask, SimPool, TraceCache, TraceStore,
                       run_pipeline)
from repro.sim.faults import (ENV_FAULT_PLAN, FaultLog, FaultPlan,
                              JobTimeout)
from repro.sim.trace_cache import disk_path
import repro.sim.parallel as parallel_mod

from test_capture_parallel import SWEEPS

# One plan stresses every injector at once: ≥10% of job attempts crash
# or hang, ≥10% of disk writes are corrupted or refused.  ``hang_s``
# comfortably exceeds the harness ``job_timeout`` so an injected hang
# is always seen as a hang, never as a slow success.  The seed is
# chosen so that, over the sweeps' 18 point jobs, the first attempt of
# some job in every sweep crashes or hangs, and both attempts of some
# jobs fail (quarantine and fallback), whatever the schedule.
CHAOS_SPEC = ("seed=90,crash=0.15,hang=0.1,corrupt=0.2,enospc=0.1,"
              "io=0.1,hang_s=1.5")
CHAOS_JOB_TIMEOUT = 0.5

#: FaultLog counters aggregated across the parametrized chaos sweeps,
#: so the suite-level test below can assert which paths fired overall.
_CHAOS_TOTALS: dict[str, dict] = {}


class TestChaosSweeps:
    """All five sweeps, byte-identical under combined fault load."""

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_byte_identical_under_chaos(self, name, tmp_path,
                                              monkeypatch):
        sweep = SWEEPS[name]
        clean = sweep(SimPool(cache=TraceStore(disk_dir=tmp_path / "clean")))

        monkeypatch.setenv(ENV_FAULT_PLAN, CHAOS_SPEC)
        store = TraceStore(disk_dir=tmp_path / "chaos")
        pool = SimPool(workers=2, capture_workers=2, cache=store,
                       job_timeout=CHAOS_JOB_TIMEOUT)
        chaotic = sweep(pool)

        assert chaotic == clean
        log = pool.fault_log.as_dict()
        log["corrupt_purged"] = store.corrupt_purged
        log["io_retries"] = store.io_retries
        _CHAOS_TOTALS[name] = log
        assert pool.fault_log.recovered_total() > 0, \
            f"{name}: the chaos plan injected nothing recoverable"

    def test_recovery_paths_covered_across_chaos_sweeps(self):
        """Aggregated over the five sweeps, the big recovery rungs all
        fired at least once (each is also pinned alone below)."""
        if len(_CHAOS_TOTALS) < len(SWEEPS):
            pytest.skip("needs the full parametrized chaos run first")
        total = FaultLog()
        for log in _CHAOS_TOTALS.values():
            for field in ("worker_crashes", "timeouts", "retries",
                          "pool_rebuilds", "fallbacks"):
                setattr(total, field, getattr(total, field) + log[field])
        assert total.worker_crashes > 0
        assert total.timeouts > 0
        assert total.retries > 0
        assert total.pool_rebuilds > 0
        assert total.fallbacks > 0


# ----------------------------------------------------------------------
# A tiny two-capture / four-replay pipeline for the pool unit tests.
# ----------------------------------------------------------------------
CFG_ARA2 = Ara2Config(lanes=8)
CFG_ARAXL = AraXLConfig(lanes=8)


def _tiny_pipeline(pool):
    captures = [CaptureTask.for_kernel("fmatmul", CFG_ARA2, 64,
                                       {"m": 8, "k": 16}),
                CaptureTask.for_kernel("fdotproduct", CFG_ARA2, 64, {})]
    replays = [(CFG_ARA2, 0), (CFG_ARAXL, 0),
               (CFG_ARA2, 1), (CFG_ARAXL, 1)]
    return run_pipeline(captures, replays, pool)


@pytest.fixture(scope="module")
def tiny_serial():
    """Clean serial reference results for :func:`_tiny_pipeline`."""
    return _tiny_pipeline(SimPool(workers=1, cache=TraceCache()))


class TestPoolRecoveryLadder:
    def test_hung_worker_times_out_and_job_is_reassigned(self, tmp_path,
                                                         tiny_serial):
        """Every first pooled attempt hangs well past ``job_timeout``:
        the futures are abandoned (counted as timeouts), the jobs
        reassigned, and the pipeline still matches serial."""
        plan = FaultPlan(seed=3, hang_rate=1.0, hang_attempts=1,
                         hang_seconds=3.0)
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path),
                       fault_plan=plan, job_timeout=0.3)
        assert _tiny_pipeline(pool) == tiny_serial
        assert pool.fault_log.timeouts >= 1
        assert pool.fault_log.retries + pool.fault_log.fallbacks >= 1

    def test_crashed_worker_rebuilds_pool_and_retry_succeeds(
            self, tmp_path, tiny_serial, monkeypatch):
        """A worker crash breaks the whole executor; the pool retires
        it, rebuilds, and the once-retried jobs succeed (the crash only
        fires on each job's first attempt)."""
        monkeypatch.setattr(parallel_mod, "MAX_REBUILDS", 10)
        plan = FaultPlan(seed=5, crash_rate=1.0, crash_attempts=1)
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path),
                       fault_plan=plan)
        assert _tiny_pipeline(pool) == tiny_serial
        assert pool.fault_log.worker_crashes >= 1
        assert pool.fault_log.pool_rebuilds >= 1
        assert pool.fault_log.retries >= 1
        assert pool.fault_log.error_types  # classified, not just counted

    def test_poison_job_is_quarantined_in_process(self, tmp_path,
                                                  tiny_serial, monkeypatch):
        """A job that kills its worker on *every* attempt gets exactly
        one pooled retry, then runs in the parent with its key flagged."""
        monkeypatch.setattr(parallel_mod, "MAX_REBUILDS", 50)
        plan = FaultPlan(seed=5, crash_rate=1.0)  # no attempt cap
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path),
                       fault_plan=plan)
        assert _tiny_pipeline(pool) == tiny_serial
        assert pool.fault_log.quarantined >= 1
        assert pool.fault_log.quarantined_keys
        assert pool.fault_log.fallbacks >= 1

    def test_rebuild_budget_exhaustion_degrades_to_serial(
            self, tmp_path, tiny_serial, monkeypatch):
        """With no rebuilds allowed, the first break latches the pool
        serial-only — the sweep completes in-process, counted once."""
        monkeypatch.setattr(parallel_mod, "MAX_REBUILDS", 0)
        plan = FaultPlan(seed=5, crash_rate=1.0)
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path),
                       fault_plan=plan)
        assert _tiny_pipeline(pool) == tiny_serial
        assert pool.fault_log.serial_degradations == 1
        assert pool.fault_log.pool_rebuilds == 0
        assert pool._serial_only

    def test_job_timeout_validation(self):
        """A deadline must be a finite positive number: ``inf``
        overflowed the executor wait, ``nan`` never expired."""
        for seconds in (0, -1.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SimPool(job_timeout=seconds)

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_cli_rejects_bad_job_timeout(self, value, capsys):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["table1", "--scale", "reduced", "--workers", "2",
                  "--job-timeout", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--job-timeout" in err and "Traceback" not in err


class TestInterruptsPropagate:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_from_pooled_job_reraises(self, tmp_path,
                                                monkeypatch, exc):
        """An interrupt surfacing from a pooled job's future is never
        classified, retried or served in-process: it re-raises out of
        :meth:`SimPool.run`, and the pool still tears its executor
        down on the way out."""
        def interrupted_wait(self, pending):
            fut = Future()
            fut.set_exception(exc())
            real = next(iter(pending))
            pending[fut] = pending.pop(real)
            return {fut}, set()

        monkeypatch.setattr(SimPool, "_wait_done", interrupted_wait)
        pool = SimPool(workers=2, capture_workers=2,
                       cache=TraceStore(disk_dir=tmp_path))
        with pytest.raises(exc):
            _tiny_pipeline(pool)
        assert pool._executor is None
        assert pool.fault_log.fallbacks == 0
        assert pool.fault_log.job_errors == 0
        assert pool.fault_log.retries == 0


# ----------------------------------------------------------------------
# Store-tier integrity: checksum, ENOSPC, transient I/O.
# ----------------------------------------------------------------------
def _capture_one(store, k=16):
    """Capture one fmatmul trace into ``store``; returns its key."""
    cfg = Ara2Config(lanes=4)
    task = CaptureTask.for_kernel("fmatmul", cfg, 64, {"m": 8, "k": k})
    task.build().capture(cfg, cache=store, verify=False)
    return task.key()


class TestStoreIntegrity:
    def test_checksum_mismatch_is_purged_on_read(self, tmp_path):
        """A corrupted payload fails its CRC on the next disk read: the
        entry is purged and counted, and the caller sees a plain miss
        (so the pipeline recaptures instead of crashing)."""
        writer = TraceStore(disk_dir=tmp_path,
                            fault_plan=FaultPlan(seed=2, corrupt_rate=1.0))
        key = _capture_one(writer)
        path = disk_path(tmp_path, key)
        assert path.exists()

        reader = TraceStore(disk_dir=tmp_path)
        assert reader.get(key) is None
        assert reader.corrupt_purged == 1
        assert reader.stats["corrupt_purged"] == 1
        assert not path.exists()

        # A probe checks the CRC without decoding, and purges alike.
        key = _capture_one(writer, k=32)
        path = disk_path(tmp_path, key)
        assert reader.probe(key) is False
        assert reader.corrupt_purged == 2
        assert not path.exists()

    def test_gc_purges_checksum_failures(self, tmp_path):
        writer = TraceStore(disk_dir=tmp_path,
                            fault_plan=FaultPlan(seed=2, corrupt_rate=1.0))
        _capture_one(writer)
        store = TraceStore(disk_dir=tmp_path)
        assert any(row["corrupt"] for row in store.manifest())
        assert store.store_stats["corrupt_entries"] == 1
        summary = store.gc()
        assert summary["purged_corrupt"] == 1
        assert store.corrupt_purged == 1
        assert store.gc()["purged_corrupt"] == 0  # gone for good

    @pytest.mark.parametrize("path_name", ["probe", "get", "gc"])
    def test_missing_checksum_counts_as_corrupt(self, tmp_path, path_name):
        """Every writer stamps ``crc32``, so an envelope without one is
        damaged: ``manifest`` flags it, and ``probe``, ``get`` and ``gc``
        each purge and count it instead of serving it."""
        key = _capture_one(TraceStore(disk_dir=tmp_path))
        path = disk_path(tmp_path, key)
        envelope = pickle.loads(path.read_bytes())
        del envelope["crc32"]
        path.write_bytes(pickle.dumps(envelope))

        store = TraceStore(disk_dir=tmp_path)
        assert [row["corrupt"] for row in store.manifest()] == [True]
        if path_name == "probe":
            assert store.probe(key) is False
        elif path_name == "get":
            assert store.get(key) is None
        else:
            assert store.gc()["purged_corrupt"] == 1
        assert store.corrupt_purged == 1
        assert not path.exists()

    def test_pooled_and_serial_reads_recover_corruption_alike(
            self, tmp_path, tiny_serial):
        """A pooled sweep classifies keys by ``probe``, a serial one
        reads them by ``get``: over copies of one store with corrupted
        entries both purge, count and recover the same entries."""
        writer = TraceStore(disk_dir=tmp_path / "pooled",
                            fault_plan=FaultPlan(seed=2, corrupt_rate=1.0))
        assert _tiny_pipeline(SimPool(workers=1, cache=writer)) \
            == tiny_serial
        shutil.copytree(tmp_path / "pooled", tmp_path / "serial")

        recovered = {}
        for name, workers in (("pooled", 2), ("serial", 1)):
            store = TraceStore(disk_dir=tmp_path / name)
            pool = SimPool(workers=workers, capture_workers=workers,
                           cache=store)
            try:
                assert _tiny_pipeline(pool) == tiny_serial
            finally:
                pool.shutdown()
            recovered[name] = (
                store.corrupt_purged,
                pool.fault_log.recovered_total() + store.corrupt_purged
                + store.io_retries + int(store.memory_only))
        assert recovered["pooled"] == recovered["serial"] == (2, 2)

    def test_enospc_degrades_to_memory_only_with_one_warning(self,
                                                             tmp_path):
        store = TraceStore(disk_dir=tmp_path,
                           fault_plan=FaultPlan(seed=1, enospc_rate=1.0))
        with pytest.warns(RuntimeWarning, match="memory-only"):
            key = _capture_one(store, k=16)
        assert store.memory_only
        assert store.stats["memory_only"] is True
        assert store.get(key) is not None  # the LRU still serves it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning is one-shot
            key2 = _capture_one(store, k=32)
        assert store.get(key2) is not None
        assert not list(tmp_path.glob("*.pkl"))  # nothing hit the disk

    def test_transient_io_error_is_retried_and_succeeds(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path,
                           fault_plan=FaultPlan(seed=1, io_error_rate=1.0,
                                                io_attempts=1))
        key = _capture_one(store)
        assert store.io_retries == 1
        assert store.put_errors == 0
        assert not store.memory_only
        assert TraceStore(disk_dir=tmp_path).probe(key)  # landed intact

    def test_persistent_io_error_abandons_the_entry(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path,
                           fault_plan=FaultPlan(seed=1, io_error_rate=1.0))
        key = _capture_one(store)
        assert store.put_errors == 1
        assert store.get(key) is not None  # memory half still holds it
        assert not list(tmp_path.glob("*.pkl"))


# ----------------------------------------------------------------------
# FaultPlan / FaultLog mechanics.
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec("seed=7,crash=0.25,hang=0.1,"
                                   "corrupt=0.5,enospc=0.05,io=0.1,"
                                   "hang_s=0.2,crash_n=2")
        assert plan.seed == 7
        assert plan.crash_rate == 0.25
        assert plan.hang_seconds == 0.2
        assert plan.crash_attempts == 2
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("seed=1,frobnicate=0.5")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_FAULT_PLAN, "seed=9,crash=0.5")
        plan = FaultPlan.from_env()
        assert plan == FaultPlan(seed=9, crash_rate=0.5)

    def test_rolls_are_deterministic_and_uniform_range(self):
        plan = FaultPlan(seed=42)
        first = plan.roll("crash", "token", 0)
        assert plan.roll("crash", "token", 0) == first
        assert 0.0 <= first < 1.0
        assert plan.roll("crash", "token", 1) != first
        assert plan.roll("hang", "token", 0) != first
        assert FaultPlan(seed=43).roll("crash", "token", 0) != first

    def test_attempt_cap_spares_retries(self):
        plan = FaultPlan(seed=1, crash_rate=1.0, crash_attempts=1)
        assert plan.should_crash("job", 0)
        assert not plan.should_crash("job", 1)

    def test_corruption_changes_bytes_deterministically(self):
        plan = FaultPlan(seed=1, corrupt_rate=1.0)
        payload = b"0123456789"
        mangled = plan.corrupted("t", 0, payload)
        assert mangled != payload
        assert len(mangled) == len(payload)
        assert plan.corrupted("t", 0, payload) == mangled
        clean = FaultPlan(seed=1).corrupted("t", 0, payload)
        assert clean == payload

    def test_fault_log_totals(self):
        log = FaultLog()
        assert log.recovered_total() == 0
        log.retries, log.timeouts, log.fallbacks = 2, 1, 3
        log.note_error(JobTimeout("late"))
        log.note_error(RuntimeError("boom"))
        log.note_error(RuntimeError("boom again"))
        assert log.recovered_total() == 6
        assert log.error_types == {"JobTimeout": 1, "RuntimeError": 2}
        as_dict = log.as_dict()
        assert as_dict["retries"] == 2
        assert as_dict["error_types"] == log.error_types
