"""Parallel capture pipeline: byte-identity harness + failure paths.

The harness proves the tentpole invariant: for **every** sweep the suite
runs (Fig 6, Fig 7, Table I, Table III, the ablations), the rendered
output is byte-identical whether the capture/replay pipeline runs
serially in-process or as point jobs on a shared
:class:`~repro.sim.parallel.SimPool`, and whether the shared trace
store is cold or pre-warmed by a previous run.  The failure tests pin
the degraded modes: a dead capture worker, a store key raced by two
pools in separate processes, and the store's GC evicting an entry while
a capture of it is in flight.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import zlib

import pytest

from repro.eval.ablations import run_knob_sweep
from repro.eval.fig6_scaling import render_fig6, run_fig6
from repro.eval.fig7_latency import render_fig7, run_fig7
from repro.eval.table1_kernels import render_table1, run_table1
from repro.eval.table3_ppa import render_table3, run_table3
from repro.kernels import build_fmatmul
from repro.params import Ara2Config, AraXLConfig
from repro.report import render_table
from repro.sim import (CaptureTask, SimPool, TraceCache, TraceStore,
                       replay_trace, run_pipeline)
from repro.sim.trace_cache import (DISK_FORMAT_VERSION, SECTIONS,
                                   _payload_schema, disk_path)
import repro.sim.parallel as parallel_mod


# ----------------------------------------------------------------------
# The five-sweep byte-identity harness.  Each entry runs one sweep at a
# small reduced operating point and returns its *rendered* output.
# ----------------------------------------------------------------------
def _fig6(pool):
    return render_fig6(run_fig6(
        kernels=("fmatmul", "fdotproduct"), bytes_per_lane=(64,),
        machines=[Ara2Config(lanes=8), AraXLConfig(lanes=8),
                  AraXLConfig(lanes=16)],
        scale="reduced", pool=pool))


def _fig7(pool):
    return render_fig7(run_fig7(
        kernels=("fmatmul", "softmax"), bytes_per_lane=(64, 128), lanes=8,
        scale="reduced", pool=pool))


def _table1(pool):
    return render_table1(run_table1(
        config=AraXLConfig(lanes=8), bytes_per_lane=64, scale="reduced",
        pool=pool))


def _table3(pool):
    return render_table3(run_table3(
        configs=[Ara2Config(lanes=8), AraXLConfig(lanes=8),
                 AraXLConfig(lanes=16)],
        scale="reduced", pool=pool))


def _ablations(pool):
    hops = (1, 4)
    configs = [AraXLConfig(lanes=8, ring_hop_latency=h) for h in hops]
    rows = run_knob_sweep(configs,
                          [("fdotproduct", 64, {}),
                           ("fmatmul", 64, {"m": 8, "k": 16})],
                          pool=pool)
    return render_table(
        ("hop cycles", "fdotproduct util", "fmatmul util"),
        [(hop, f"{u[0] * 100:.3f}%", f"{u[1] * 100:.3f}%")
         for hop, u in zip(hops, rows)],
        title="Ablation — RINGI hop latency (harness point)")


SWEEPS = {"fig6": _fig6, "fig7": _fig7, "table1": _table1,
          "table3": _table3, "ablations": _ablations}


class TestByteIdentityHarness:
    """Serial vs parallel capture, cold vs pre-warmed store — all sweeps."""

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_byte_identical(self, name, tmp_path):
        sweep = SWEEPS[name]
        serial = sweep(SimPool(cache=TraceStore(disk_dir=tmp_path / "serial")))
        # Cold store, captures fanned over a pool, replays pooled too.
        cold_parallel = sweep(SimPool(
            workers=2, capture_workers=3,
            cache=TraceStore(disk_dir=tmp_path / "par")))
        assert cold_parallel == serial
        # Pre-warmed store: every point is a disk hit, same bytes out.
        warm_parallel = sweep(SimPool(
            workers=2, capture_workers=3,
            cache=TraceStore(disk_dir=tmp_path / "par")))
        assert warm_parallel == serial
        # Parallel capture without any disk store at all (payloads ship
        # back over the pipe instead of landing as envelopes).
        memory_only = sweep(SimPool(capture_workers=2, cache=TraceCache()))
        assert memory_only == serial


# ----------------------------------------------------------------------
# Capture-phase behaviour of SimPool.run, driven through run_pipeline
# ----------------------------------------------------------------------
def _task(lanes=4, k=16, verify=False):
    return CaptureTask.for_kernel("fmatmul", Ara2Config(lanes=lanes), 64,
                                  {"m": 8, "k": k}, verify=verify)


def _direct_timing(task):
    run = task.build()
    return run.run(task.config, verify=False).timing


def _timed(tasks, pool):
    """Replay every task once on its own config through ``pool``."""
    return run_pipeline(tasks, [(t.config, i) for i, t in enumerate(tasks)],
                        pool)


def _no_executor(monkeypatch, why):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail(why))


class TestCapturePool:
    """The capture phase of :meth:`SimPool.run`: in-process paths, key
    dedup, warm serving, and capture-only degradation counts."""

    def test_workers_one_never_spawns_processes(self, monkeypatch):
        _no_executor(monkeypatch, "workers=1 must not build a pool")
        tasks = [_task(lanes=4), _task(lanes=8)]
        assert _timed(tasks, SimPool(workers=1, capture_workers=4)) \
            == [_direct_timing(task) for task in tasks]

    def test_single_task_stays_in_process(self, monkeypatch):
        """One capture with no replays never builds an executor."""
        _no_executor(monkeypatch, "one capture must run in-process")
        store = TraceCache()
        pool = SimPool(workers=4, capture_workers=4, cache=store)
        assert run_pipeline([_task()], [], pool) == []
        assert store.stats["misses"] == 1
        assert pool.pipeline_stats.capture_points == 1

    def test_batch_dedupes_by_trace_key(self, tmp_path):
        """Tasks sharing a key run one functional capture, not three."""
        store = TraceStore(disk_dir=tmp_path)
        tasks = [_task(k=16), _task(k=16), _task(k=32)]
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        assert _timed(tasks, pool) == [_direct_timing(t) for t in tasks]
        assert store.stats["remote_puts"] + store.stats["misses"] == 2

    def test_cached_keys_served_by_a_worker(self, tmp_path):
        """A pre-warmed store serves the capture to the worker that
        replays it; the parent reads nothing and captures nothing."""
        store = TraceStore(disk_dir=tmp_path)
        task = _task()
        task.build().capture(task.config, cache=store, verify=False)
        fresh = TraceStore(disk_dir=tmp_path)
        pool = SimPool(workers=2, capture_workers=2, cache=fresh)
        assert _timed([task, task], pool) == [_direct_timing(task)] * 2
        assert (fresh.stats["disk_hits"], fresh.stats["misses"],
                fresh.stats["remote_puts"]) == (0, 0, 0)
        # Two configs of one key split over the two idle workers: each
        # chunk reads the store, or the memory of a worker that did.
        assert pool.stats["hits"] + pool.stats["disk_hits"] == 2
        assert pool.stats["disk_hits"] >= 1
        assert pool.stats["misses"] == 0
        assert pool.pipeline_stats.capture_points == 1

    def test_serial_warm_pipeline_reads_each_key_once(self, tmp_path,
                                                       monkeypatch):
        """A workers=1 rerun on a warm store serves every key from one
        disk read: no probe ahead of the capture's own lookup, no
        executor."""
        tasks = [_task(lanes=4), _task(lanes=8), _task(lanes=4, k=32)]
        expected = _timed(tasks, SimPool(
            workers=1, cache=TraceStore(disk_dir=tmp_path)))
        probes = []
        original_probe = TraceCache.probe
        monkeypatch.setattr(TraceCache, "probe", lambda self, key: (
            probes.append(key), original_probe(self, key))[1])
        _no_executor(monkeypatch, "workers=1 must not build a pool")
        warm = TraceStore(disk_dir=tmp_path)
        assert _timed(tasks, SimPool(workers=1, cache=warm)) == expected
        assert probes == []
        assert warm.stats["disk_hits"] == len(tasks)
        assert warm.stats["misses"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_aliased_tasks_count_one_capture_point(self, workers):
        """Tasks sharing a key are one capture point in every schedule."""
        tasks = [_task(k=16), _task(k=16), _task(k=32)]
        pool = SimPool(workers=workers, capture_workers=workers,
                       cache=TraceCache())
        assert _timed(tasks, pool) == [_direct_timing(t) for t in tasks]
        assert pool.pipeline_stats.capture_points == 2
        assert pool.cache.stats["misses"] + pool.cache.stats[
            "remote_puts"] == 2

    def test_autodetect_and_validation(self):
        assert SimPool().capture_workers == 1  # the default stays serial
        assert SimPool(workers=4, capture_workers=None).capture_workers \
            == min(4, parallel_mod.autodetect_workers())
        with pytest.raises(ValueError):
            SimPool(workers=2, capture_workers=0)

    def test_empty_batch(self):
        assert run_pipeline([], [], SimPool(workers=2)) == []

    def test_dead_worker_falls_back_in_process(self, tmp_path, monkeypatch):
        """A worker whose job never returns a result degrades to an
        in-process capture instead of failing the sweep.  The job is
        made unrunnable by patching the tagged worker entry point to
        something the executor cannot ship, so its future raises
        regardless of the multiprocessing start method.  With no
        replays in the pipeline, every fallback is a capture."""
        monkeypatch.setattr(parallel_mod, "_run_job",
                            lambda *a: (_ for _ in ()).throw(RuntimeError))
        store = TraceStore(disk_dir=tmp_path)
        tasks = [_task(lanes=4), _task(lanes=8)]
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        assert run_pipeline(tasks, [], pool) == []
        assert pool.fault_log.fallbacks == 2
        assert store.stats["misses"] == 2  # in-process captures
        assert store.stats["remote_puts"] == 0
        reader = TraceStore(disk_dir=tmp_path)
        for task in tasks:
            assert replay_trace(task.config, reader.get(task.key())).timing \
                == _direct_timing(task)

    def test_gc_evicting_fresh_entry_needs_no_fallback(self, tmp_path,
                                                       monkeypatch):
        """Deterministic GC-mid-capture: the worker's entry vanishes
        before the parent records it.  The parent reads no entry, so
        it records the capture and falls back to nothing; a later
        serial run recaptures the keys."""
        store = TraceStore(disk_dir=tmp_path)
        real_ingest = TraceStore.ingest_remote

        def evicted_first(self, key, payload=None):
            disk_path(self.disk_dir, key).unlink()
            return real_ingest(self, key, payload)

        monkeypatch.setattr(TraceStore, "ingest_remote", evicted_first)
        pool = SimPool(workers=2, capture_workers=2, cache=store)
        tasks = [_task(lanes=4), _task(lanes=8)]
        assert run_pipeline(tasks, [], pool) == []
        assert pool.fault_log.fallbacks == 0
        assert pool.pipeline_stats.capture_points == 2
        assert store.stats["remote_puts"] == 2
        later = TraceStore(disk_dir=tmp_path)
        assert _timed(tasks, SimPool(workers=1, cache=later)) \
            == [_direct_timing(task) for task in tasks]
        assert later.stats["misses"] == 2

    def test_gc_racing_live_captures(self, tmp_path):
        """An aggressive GC (budget 0) hammering the store while a
        pipeline captures into it: whatever the interleaving, every
        point comes back correct (fallbacks absorb lost entries)."""
        store = TraceStore(disk_dir=tmp_path)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                store.gc(max_bytes=0)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            tasks = [_task(lanes=4, k=k) for k in (16, 32, 48)]
            reports = _timed(tasks, SimPool(workers=2, capture_workers=2,
                                            cache=store))
        finally:
            stop.set()
            thread.join()
        assert reports == [_direct_timing(task) for task in tasks]


# ----------------------------------------------------------------------
# Two pipeline processes racing on the same store keys
# ----------------------------------------------------------------------
def _pool_capture_proc(disk_dir: str) -> None:
    """Worker process: run a pooled pipeline over its twin's keys."""
    store = TraceStore(disk_dir=disk_dir)
    tasks = [CaptureTask.for_kernel("fmatmul", Ara2Config(lanes=4), 64,
                                    {"m": 8, "k": k}) for k in (16, 32)]
    reports = _timed(tasks, SimPool(workers=2, capture_workers=2,
                                    cache=store))
    assert all(report is not None for report in reports)


class TestConcurrentCapturePools:
    """Two pooled pipelines in separate processes share one store."""

    def test_two_pools_racing_one_store(self, tmp_path):
        """Both pools capture the same keys; the store ends with one
        whole envelope per key and no torn or orphaned files."""
        procs = [multiprocessing.Process(target=_pool_capture_proc,
                                         args=(str(tmp_path),))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        files = sorted(tmp_path.glob("trace_*.pkl"))
        assert len(files) == 2  # one winner per key, no duplicates
        assert not list(tmp_path.glob("*.tmp"))
        for path in files:
            with path.open("rb") as fh:
                envelope = pickle.load(fh)  # must always unpickle whole
            assert envelope["format"] == DISK_FORMAT_VERSION
        # And the winner is a usable, correct trace.
        task = CaptureTask.for_kernel("fmatmul", Ara2Config(lanes=4), 64,
                                      {"m": 8, "k": 16})
        entry = TraceStore(disk_dir=tmp_path).get(task.key())
        assert entry is not None
        assert replay_trace(task.config, entry).timing \
            == _direct_timing(task)


# ----------------------------------------------------------------------
# remote_puts accounting
# ----------------------------------------------------------------------
class TestRemotePuts:
    def _entry(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        writer = TraceCache(disk_dir=tmp_path)
        captured = run.capture(cfg, cache=writer, verify=False)
        return run.trace_key(cfg), captured

    def test_ingest_from_disk_counts_remote_put_only(self, tmp_path):
        """Recording a worker's disk-routed capture reads nothing: no
        lookup, no memory entry; a later lookup reads the store."""
        key, _ = self._entry(tmp_path)
        reader = TraceCache(disk_dir=tmp_path)
        assert reader.ingest_remote(key) is None
        stats = reader.stats
        assert stats["remote_puts"] == 1
        assert (stats["hits"], stats["disk_hits"], stats["misses"]) \
            == (0, 0, 0)
        assert stats["lookups"] == 0  # recording is not a lookup
        assert len(reader) == 0
        assert reader.get(key) is not None
        assert reader.stats["disk_hits"] == 1

    def test_ingest_with_shipped_payload(self, tmp_path):
        key, captured = self._entry(tmp_path)
        memory_only = TraceCache()
        memory_only.ingest_remote(key, captured)
        assert memory_only.stats["remote_puts"] == 1
        assert memory_only.get(key) is captured
        assert memory_only.stats["hits"] == 1

    def test_ingest_missing_entry_returns_none(self, tmp_path):
        """Nothing is read, so a key with no entry on disk (the GC
        evicted it) is recorded like any other: a worker paid for it."""
        cache = TraceCache(disk_dir=tmp_path / "empty")
        assert cache.ingest_remote(("nope", 1, "x")) is None
        assert cache.stats["remote_puts"] == 1
        assert cache.stats["lookups"] == 0
        assert not (tmp_path / "empty").exists()


# ----------------------------------------------------------------------
# Envelope v4: zlib-compressed payloads
# ----------------------------------------------------------------------
class TestCompressedEnvelope:
    def _capture(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        cache = TraceCache(disk_dir=tmp_path)
        captured = run.capture(cfg, cache=cache, verify=False)
        return cfg, run, captured, run.trace_key(cfg)

    def test_round_trip_and_compression_ratio(self, tmp_path):
        from repro.functional.trace_pack import MAGIC

        cfg, run, captured, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        with path.open("rb") as fh:
            envelope = pickle.load(fh)
        # v8 sections: pruned fields, the columnar blob as two zlib
        # streams that concatenate to the capture's blob byte for byte,
        # and the plan — together smaller than the object pickle and
        # cheaper to rehydrate.
        inner = pickle.loads(zlib.decompress(envelope["payload"]))
        assert isinstance(inner, dict)
        blob = (zlib.decompress(envelope["scalar"])
                + zlib.decompress(envelope["vector"]))
        assert blob.startswith(MAGIC)
        assert blob == captured.trace.blob
        raw = pickle.dumps(captured, protocol=pickle.HIGHEST_PROTOCOL)
        packed = sum(len(envelope[name]) for name in SECTIONS)
        assert packed < len(raw) / 2  # really compressed
        # A fresh cache rehydrates the entry and replays bit-identically.
        entry = TraceCache(disk_dir=tmp_path).get(key)
        assert entry is not None
        assert replay_trace(cfg, entry).timing \
            == run.run(cfg, verify=False).timing

    def test_v3_uncompressed_envelope_is_a_miss(self, tmp_path):
        """A pre-compression (v3) file reads as a plain stale miss."""
        _, _, captured, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        v3 = {"format": 3, "schema": _payload_schema(),
              "payload": pickle.dumps(captured,
                                      protocol=pickle.HIGHEST_PROTOCOL)}
        path.write_bytes(pickle.dumps(v3))
        stale = TraceCache(disk_dir=tmp_path)
        assert not stale.probe(key)
        assert stale.get(key) is None
        assert stale.stats["misses"] == 1

    def test_gc_purges_v3_entries(self, tmp_path):
        _, _, captured, key = self._capture(tmp_path)
        store = TraceStore(disk_dir=tmp_path)
        v3 = tmp_path / "trace_aaaa.pkl"
        v3.write_bytes(pickle.dumps(
            {"format": 3, "schema": _payload_schema(),
             "payload": pickle.dumps(captured)}))
        summary = store.gc()
        assert summary["purged_stale"] == 1
        assert not v3.exists()
        assert disk_path(tmp_path, key).exists()  # the v4 entry survives

    def test_corrupt_compressed_payload_is_a_miss(self, tmp_path):
        """Valid tags around bytes zlib rejects: a miss, not a crash."""
        _, _, _, key = self._capture(tmp_path)
        path = disk_path(tmp_path, key)
        bad = {"format": DISK_FORMAT_VERSION, "schema": _payload_schema(),
               "payload": b"definitely not zlib"}
        path.write_bytes(pickle.dumps(bad))
        cache = TraceCache(disk_dir=tmp_path)
        # The probe checks the payload checksum: an entry whose payload
        # cannot rehydrate must not claim to exist.
        assert not cache.probe(key)
        assert cache.get(key) is None
        assert cache.stats["misses"] == 1
