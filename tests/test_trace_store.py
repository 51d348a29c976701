"""Shared trace store: GC lifecycle, stats bugfixes, cross-sweep sharing."""

from __future__ import annotations

import gc
import inspect
import multiprocessing
import os
import pickle
import time
import warnings
import weakref

import pytest

from repro.eval.fig6_scaling import run_fig6
from repro.eval.fig7_latency import render_fig7, run_fig7
from repro.eval.runner import (EXPERIMENTS, SIMULATION_EXPERIMENTS,
                               STATIC_EXPERIMENTS, run_experiment)
from repro.eval.table1_kernels import render_table1, run_table1
from repro.env import ENV_FUZZ_SEEDS
from repro.errors import ConfigError
from repro.functional.executor import Executor
from repro.kernels import build_fmatmul
from repro.params import Ara2Config, AraXLConfig
from repro.sim import (CaptureTask, SimPool, Simulator, TraceCache,
                       TraceStore, attach_store, run_pipeline)
from repro.sim.faults import FaultPlan
from repro.sim.trace_cache import disk_path
from repro.sim.trace_store import (DEFAULT_TMP_MAX_AGE_S, ENV_STORE_BYTES,
                                   ENV_STORE_DIR, resolve_store_bytes,
                                   resolve_store_dir)


def _capture_entry(store, k=16, lanes=4):
    """Capture one distinct fmatmul trace into ``store``; returns its key."""
    cfg = Ara2Config(lanes=lanes)
    run = build_fmatmul(cfg, 64, m=8, k=k)
    run.capture(cfg, cache=store, verify=False)
    return run.trace_key(cfg)


def _entry_file(store, key):
    return disk_path(store.disk_dir, key)


def _set_age(path, age_s):
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


# ----------------------------------------------------------------------
# GC policy
# ----------------------------------------------------------------------
class TestStoreGc:
    def test_size_cap_evicts_oldest_mtime_first(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        keys = [_capture_entry(store, k=k) for k in (16, 32, 48)]
        paths = [_entry_file(store, key) for key in keys]
        for path, age in zip(paths, (300, 200, 100)):  # [0] is oldest
            _set_age(path, age)

        budget = paths[1].stat().st_size + paths[2].stat().st_size
        summary = store.gc(max_bytes=budget)
        assert summary["evicted"] == 1
        assert not paths[0].exists()  # oldest went first
        assert paths[1].exists() and paths[2].exists()
        assert summary["bytes_after"] <= budget
        assert summary["entries"] == 2

    def test_disk_hit_freshens_mtime_so_gc_is_lru(self, tmp_path):
        writer = TraceStore(disk_dir=tmp_path)
        key_a = _capture_entry(writer, k=16)
        key_b = _capture_entry(writer, k=32)
        path_a, path_b = (_entry_file(writer, k) for k in (key_a, key_b))
        _set_age(path_a, 500)  # A written long ago...
        _set_age(path_b, 100)

        reader = TraceStore(disk_dir=tmp_path)
        assert reader.get(key_a) is not None  # ...but used just now

        reader.gc(max_bytes=path_a.stat().st_size)
        assert path_a.exists(), "recently-used entry must survive"
        assert not path_b.exists(), "least-recently-used entry evicted"

    def test_stale_envelope_files_are_purged(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(store)
        good = _entry_file(store, key)

        wrong_format = tmp_path / "trace_aaaa.pkl"
        with good.open("rb") as fh:
            envelope = pickle.load(fh)
        envelope["format"] = -1
        wrong_format.write_bytes(pickle.dumps(envelope))
        bare = tmp_path / "trace_bbbb.pkl"
        bare.write_bytes(pickle.dumps({"not": "an envelope"}))
        corrupt = tmp_path / "trace_cccc.pkl"
        corrupt.write_bytes(b"definitely not a pickle")

        summary = store.gc()
        assert summary["purged_stale"] == 3
        assert good.exists()
        assert not wrong_format.exists()
        assert not bare.exists() and not corrupt.exists()

    def test_orphaned_tmp_files_are_reaped(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        _capture_entry(store)
        crashed = tmp_path / "trace_dead.pkl.123.tmp"
        crashed.write_bytes(b"half-written")
        _set_age(crashed, 2 * DEFAULT_TMP_MAX_AGE_S)
        in_flight = tmp_path / "trace_live.pkl.456.tmp"
        in_flight.write_bytes(b"being written right now")

        summary = store.gc()
        assert summary["reaped_tmp"] == 1
        assert not crashed.exists()
        assert in_flight.exists(), "a live writer's tempfile must survive"

    def test_tmp_reaping_follows_the_injected_clock(self, tmp_path):
        """GC judges tempfile age by the store's own clock, never the
        wall clock.  A store on an injected clock stamps its tempfiles
        with that clock, so to a wall-clock GC (the old bug) every
        in-flight write of a faked-time test looks ancient and gets
        reaped out from under its writer."""
        fake = [1_000_000.0]  # decades behind time.time()
        store = TraceStore(disk_dir=tmp_path, clock=lambda: fake[0])
        _capture_entry(store)
        in_flight = tmp_path / "trace_live.pkl.42.tmp"
        in_flight.write_bytes(b"being written right now")
        os.utime(in_flight, (fake[0], fake[0]))  # stamped "now" (fake)

        assert store.gc()["reaped_tmp"] == 0
        assert in_flight.exists(), \
            "a tempfile stamped 'now' by the store's clock is not an orphan"

        fake[0] += 2 * DEFAULT_TMP_MAX_AGE_S
        assert store.gc()["reaped_tmp"] == 1
        assert not in_flight.exists()

    def test_gc_on_missing_dir_is_a_noop(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path / "never_created")
        summary = store.gc()
        assert summary == {"reaped_tmp": 0, "purged_stale": 0,
                           "purged_corrupt": 0, "evicted": 0,
                           "entries": 0, "bytes_before": 0,
                           "bytes_after": 0}

    def test_manifest_and_store_stats(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path, max_bytes=12345)
        _capture_entry(store, k=16)
        _capture_entry(store, k=32)
        manifest = store.manifest()
        assert len(manifest) == 2
        assert all(row["bytes"] > 0 and row["age_s"] >= 0.0
                   for row in manifest)
        stats = store.store_stats
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] == sum(r["bytes"] for r in manifest)
        assert stats["max_bytes"] == 12345
        assert stats["dir"] == str(tmp_path)
        assert stats["misses"] == 2  # the two captures

    def test_no_unused_knobs(self):
        """The store takes the default LRU capacity and orphan age."""
        params = inspect.signature(TraceStore).parameters
        assert "capacity" not in params
        assert "tmp_max_age_s" not in params


def _hammer_store_puts(disk_dir: str, iterations: int) -> None:
    """Writer process: repeatedly re-put one entry while the parent GCs."""
    store = TraceStore(disk_dir=disk_dir)
    cfg = Ara2Config(lanes=4)
    run = build_fmatmul(cfg, 64, m=8, k=16)
    captured = run.capture(cfg, verify=False)
    key = run.trace_key(cfg)
    for _ in range(iterations):
        store.put(key, captured)


class TestGcConcurrency:
    def test_gc_races_writer_without_corruption(self, tmp_path):
        """An aggressive GC (budget 0: evict everything it sees) racing a
        writer must never corrupt the store or crash either side."""
        proc = multiprocessing.Process(target=_hammer_store_puts,
                                       args=(str(tmp_path), 40))
        proc.start()
        gcs = 0
        store = TraceStore(disk_dir=tmp_path)
        while proc.is_alive():
            store.gc(max_bytes=0)
            gcs += 1
        proc.join(timeout=120)
        assert proc.exitcode == 0
        assert gcs > 0
        # Whatever survived the race, the store still works end to end.
        key = _capture_entry(store)
        fresh = TraceStore(disk_dir=tmp_path)
        assert fresh.get(key) is not None
        assert fresh.stats["disk_hits"] == 1


# ----------------------------------------------------------------------
# Store resolution (env vars, attach semantics)
# ----------------------------------------------------------------------
class TestStoreResolution:
    def test_dir_priority_explicit_env_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_STORE_DIR, raising=False)
        # The suite default is anchored to the checkout, never the cwd.
        assert resolve_store_dir().is_absolute()
        assert resolve_store_dir().name == "trace_cache"
        assert resolve_store_dir(default=tmp_path / "d") == tmp_path / "d"
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "env"))
        assert resolve_store_dir(default=tmp_path / "d") == tmp_path / "env"
        assert resolve_store_dir(tmp_path / "x") == tmp_path / "x"

    def test_bytes_priority(self, monkeypatch):
        monkeypatch.delenv(ENV_STORE_BYTES, raising=False)
        assert resolve_store_bytes() == 256 * 1024 * 1024
        monkeypatch.setenv(ENV_STORE_BYTES, "1024")
        assert resolve_store_bytes() == 1024
        assert resolve_store_bytes(7) == 7
        assert resolve_store_bytes(0) == 0  # a zero budget stays legal

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_malformed_budget_variable_is_a_config_error(self, value,
                                                         monkeypatch):
        monkeypatch.setenv(ENV_STORE_BYTES, value)
        with pytest.raises(ConfigError, match=ENV_STORE_BYTES):
            resolve_store_bytes()

    @pytest.mark.parametrize("argv, env", [
        (["fig9", "--store-bytes", "-1"], {}),
        (["fig9"], {ENV_STORE_BYTES: "abc"}),
        (["fuzz"], {ENV_FUZZ_SEEDS: "x"}),
    ], ids=["negative-flag", "budget-variable", "seed-variable"])
    def test_cli_reports_malformed_input_as_usage_error(
            self, argv, env, tmp_path, monkeypatch, capsys):
        from repro.eval.__main__ import main

        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trace-store", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (list(env) or ["--store-bytes"])[0] in err

    def test_cli_accepts_a_zero_budget(self, tmp_path, monkeypatch):
        from repro.eval.__main__ import main

        monkeypatch.setenv(ENV_STORE_BYTES, "0")
        assert main(["fig9", "--trace-store", str(tmp_path)]) == 0
        assert main(["fig9", "--trace-store", str(tmp_path),
                     "--store-bytes", "0", "--gc"]) == 0

    def test_attach_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_STORE_DIR, raising=False)
        assert attach_store() is None
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "envstore"))
        via_env = attach_store()
        assert isinstance(via_env, TraceStore)
        assert via_env.disk_dir == tmp_path / "envstore"


# ----------------------------------------------------------------------
# Replay-only entries: a cached capture pins no memory image
# ----------------------------------------------------------------------
@pytest.fixture
def image_refs(monkeypatch):
    """Weak references to every memory image a capture builds."""
    refs = []
    capture = Simulator.capture

    def recording(sim, program, **kwargs):
        refs.append(weakref.ref(sim.mem))
        return capture(sim, program, **kwargs)

    monkeypatch.setattr(Simulator, "capture", recording)
    return refs


class TestReplayOnlyEntries:
    def test_cached_capture_pins_no_memory_image(self, image_refs):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        cache = TraceCache()
        captured = run.capture(cfg, cache=cache, verify=False)
        del captured
        gc.collect()
        assert len(image_refs) == 1
        assert all(ref() is None for ref in image_refs)
        assert cache.get(run.trace_key(cfg)).extra == {}
        assert cache.stats["hits"] == 1

    def test_pooled_captures_pin_no_memory_image(self, image_refs):
        cfg = Ara2Config(lanes=4)
        tasks = [CaptureTask.for_kernel("fmatmul", cfg, 64,
                                        {"m": 8, "k": k})
                 for k in (16, 32)]
        pool = SimPool(workers=1, cache=TraceCache())
        run_pipeline(tasks, [(cfg, 0), (cfg, 1)], pool)
        gc.collect()
        assert len(image_refs) == 2
        assert all(ref() is None for ref in image_refs)
        for task in tasks:
            assert pool.cache.get(task.key()).extra == {}
        assert pool.cache.stats["hits"] == 2


# ----------------------------------------------------------------------
# Verified captures: execute, check and put; never a cache lookup
# ----------------------------------------------------------------------
class TestVerifiedCaptureCounts:
    @pytest.fixture
    def counted(self, monkeypatch):
        """fmatmul run counting its golden checks and the functional
        executions (their results, in order) behind it."""
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        checks, executions = [], []
        check, execute = run.check, Executor.run

        def counted_check(sim):
            checks.append(1)
            return check(sim)

        def counted_execute(self, program, *args, **kwargs):
            executions.append(execute(self, program, *args, **kwargs))
            return executions[-1]

        run.check = counted_check
        monkeypatch.setattr(Executor, "run", counted_execute)
        return cfg, run, checks, executions

    def _counts(self, cache):
        stats = cache.stats
        return stats["hits"], stats["disk_hits"], stats["misses"]

    def test_warm_memory_key_recaptures_without_lookup(self, counted):
        cfg, run, checks, executions = counted
        cache = TraceCache()
        run.capture(cfg, cache=cache, verify=False)
        assert self._counts(cache) == (0, 0, 1)
        assert len(executions) == 1 and checks == []
        captured = run.capture(cfg, cache=cache, verify=True)
        assert self._counts(cache) == (0, 0, 1)
        assert len(executions) == 2 and checks == [1]
        assert captured.extra == {}
        assert cache.get(run.trace_key(cfg)) is captured

    def test_warm_disk_key_recaptures_without_lookup(self, counted,
                                                      tmp_path):
        cfg, run, checks, executions = counted
        key = run.trace_key(cfg)
        TraceCache(disk_dir=tmp_path).put(key, run.capture(cfg,
                                                           verify=False))
        reader = TraceCache(disk_dir=tmp_path)  # cold memory, warm disk
        captured = run.capture(cfg, cache=reader, verify=True)
        assert self._counts(reader) == (0, 0, 0)
        assert len(executions) == 2 and checks == [1]
        assert captured.extra == {}
        cold = TraceCache(disk_dir=tmp_path)  # the put rewrote the file
        assert cold.get(key).extra == {}
        assert self._counts(cold) == (0, 1, 0)

    def test_unverified_capture_after_verified_is_a_memory_hit(self,
                                                               counted):
        cfg, run, checks, executions = counted
        cache = TraceCache()
        captured = run.capture(cfg, cache=cache, verify=True)
        assert self._counts(cache) == (0, 0, 0)
        again = run.capture(cfg, cache=cache, verify=False)
        assert self._counts(cache) == (1, 0, 0)
        assert again is captured
        assert again.trace is executions[0].trace  # one plan memo
        assert len(executions) == 1 and checks == [1]


# ----------------------------------------------------------------------
# Cross-sweep sharing and byte-identity
# ----------------------------------------------------------------------
class TestSharedStoreAcrossSweeps:
    _FIG7_KW = dict(kernels=("fmatmul",), bytes_per_lane=(64,), lanes=8,
                    scale="reduced")

    def test_two_sweeps_share_one_store(self, tmp_path):
        """A fig6 capture is a disk hit for a fig7 run over the same
        operating point — the whole point of the shared store."""
        store1 = TraceStore(disk_dir=tmp_path)
        run_fig6(kernels=("fmatmul",), bytes_per_lane=(64,),
                 machines=[Ara2Config(lanes=8)], scale="reduced",
                 pool=SimPool(cache=store1))
        assert store1.stats["misses"] == 1  # fig6 paid the capture

        store2 = TraceStore(disk_dir=tmp_path)  # fresh attach, same disk
        points = run_fig7(**self._FIG7_KW, pool=SimPool(cache=store2))
        assert store2.stats["misses"] == 0
        assert store2.stats["disk_hits"] >= 1  # served from fig6's capture
        private = run_fig7(**self._FIG7_KW)
        assert render_fig7(points) == render_fig7(private)

    def test_output_identical_cold_warm_and_gcd(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        cold = run_fig7(**self._FIG7_KW, pool=SimPool(cache=store))
        warm = run_fig7(**self._FIG7_KW,
                        pool=SimPool(cache=TraceStore(disk_dir=tmp_path)))
        store.gc(max_bytes=0)  # evict everything mid-run
        assert store.manifest() == []
        gcd = run_fig7(**self._FIG7_KW,
                       pool=SimPool(cache=TraceStore(disk_dir=tmp_path)))
        assert render_fig7(cold) == render_fig7(warm) == render_fig7(gcd)

    def test_table1_reads_and_warms_the_store(self, tmp_path):
        cfg = AraXLConfig(lanes=8)
        kw = dict(config=cfg, bytes_per_lane=64, scale="reduced")
        store = TraceStore(disk_dir=tmp_path)
        first = run_table1(**kw, pool=SimPool(cache=store))
        assert store.stats["misses"] > 0  # cold: capture phase ran
        assert len(store.manifest()) == store.stats["misses"]  # warmed disk

        again = TraceStore(disk_dir=tmp_path)
        second = run_table1(**kw, pool=SimPool(cache=again))
        assert again.stats["misses"] == 0
        assert again.stats["disk_hits"] == store.stats["misses"]
        assert second == first


class TestTable1Workers:
    def test_parallel_matches_serial(self):
        kw = dict(config=AraXLConfig(lanes=8), bytes_per_lane=64,
                  scale="reduced")
        serial = run_table1(**kw, pool=SimPool(workers=1))
        parallel = run_table1(**kw, pool=SimPool(workers=2))
        assert parallel == serial
        assert render_table1(parallel) == render_table1(serial)


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_static_and_simulation_partition_the_registry(self):
        assert SIMULATION_EXPERIMENTS | STATIC_EXPERIMENTS == set(EXPERIMENTS)
        assert not SIMULATION_EXPERIMENTS & STATIC_EXPERIMENTS

    @pytest.mark.parametrize("name", sorted(STATIC_EXPERIMENTS))
    def test_static_experiments_ignore_all_args(self, name, tmp_path):
        plain = run_experiment(name)
        pool = SimPool(workers=3,
                       cache=TraceStore(disk_dir=tmp_path / "ignored"))
        decorated = run_experiment(name, scale="reduced", pool=pool,
                                   machines=[AraXLConfig(lanes=8)])
        assert decorated == plain
        assert not (tmp_path / "ignored").exists()  # store never touched
        assert pool.pipeline_stats.replay_points == 0

    def test_run_experiment_threads_workers_and_store(self, tmp_path):
        store_dir = tmp_path / "store"
        cold = run_experiment("table1", scale="reduced", pool=SimPool(
            workers=2, cache=TraceStore(disk_dir=store_dir)))
        assert any(store_dir.glob("trace_*.pkl"))  # experiment warmed it
        warm = run_experiment("table1", scale="reduced", pool=SimPool(
            cache=TraceStore(disk_dir=store_dir)))
        assert warm == cold

    def test_one_pool_carries_two_experiments(self):
        """The CLI's contract: one pool per invocation.  Its cache
        serves the second run's captures, and its stats add up."""
        pool = SimPool(cache=TraceCache())
        first = run_experiment("table1", scale="reduced", pool=pool)
        after_first = dict(pool.cache.stats)
        points = pool.pipeline_stats.replay_points
        assert after_first["misses"] == points > 0

        second = run_experiment("table1", scale="reduced", pool=pool)
        assert second == first
        assert pool.cache.stats["misses"] == after_first["misses"]
        assert pool.cache.stats["hits"] - after_first["hits"] == points
        assert pool.pipeline_stats.replay_points == 2 * points
        assert pool.pipeline_stats.capture_points == 2 * points

    def test_run_experiment_attaches_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "envstore"))
        out = run_experiment("table1", scale="reduced")
        assert any((tmp_path / "envstore").glob("trace_*.pkl"))
        monkeypatch.delenv(ENV_STORE_DIR)
        assert out == run_experiment("table1", scale="reduced")


# ----------------------------------------------------------------------
# hits_served: entries an older revision wrote with the retired counter
# still serve; a disk serve only freshens the entry's mtime
# ----------------------------------------------------------------------
class TestHitsServed:
    def _envelope(self, path):
        with path.open("rb") as fh:
            return pickle.load(fh)

    def test_envelope_without_counter_field(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        path = _entry_file(store, _capture_entry(store))
        assert "hits_served" not in self._envelope(path)
        assert "hits_served" not in store.manifest()[0]
        assert "hits_served" not in store.store_stats

    @pytest.mark.parametrize("count", [0, 5])
    def test_envelope_counter_field_still_serves(self, count, tmp_path):
        """Entries an older revision wrote carry ``hits_served``; they
        validate, serve, and survive the GC like any other entry."""
        store = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        envelope = self._envelope(path)
        envelope["hits_served"] = count
        path.write_bytes(pickle.dumps(envelope))

        reader = TraceStore(disk_dir=tmp_path)
        assert reader.probe(key)
        assert reader.get(key) is not None
        assert reader.stats["disk_hits"] == 1
        assert [row["corrupt"] for row in reader.manifest()] == [False]
        assert reader.gc()["entries"] == 1
        assert self._envelope(path)["hits_served"] == count  # not rewritten

    def test_bump_freshens_mtime_for_lru(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(store)
        path = _entry_file(store, key)
        _set_age(path, 1000)
        aged = path.stat().st_mtime
        assert TraceStore(disk_dir=tmp_path).get(key) is not None
        assert path.stat().st_mtime > aged  # utime freshens, no rewrite

    def test_plain_cache_disk_hit_freshens_mtime(self, tmp_path):
        """Pool workers read through a plain cache; their disk hits keep
        the GC's LRU order too."""
        key = _capture_entry(TraceCache(disk_dir=tmp_path))
        path = disk_path(tmp_path, key)
        _set_age(path, 1000)
        aged = path.stat().st_mtime
        assert TraceCache(disk_dir=tmp_path).get(key) is not None
        assert path.stat().st_mtime > aged

    def test_freshen_stamps_the_injected_clock(self, tmp_path):
        fake = [1_000_000.0]
        key = _capture_entry(TraceCache(disk_dir=tmp_path))
        reader = TraceCache(disk_dir=tmp_path, clock=lambda: fake[0])
        assert reader.get(key) is not None
        assert disk_path(tmp_path, key).stat().st_mtime == fake[0]

    def test_payload_survives_bumps(self, tmp_path):
        from repro.sim import replay_trace

        store = TraceStore(disk_dir=tmp_path)
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        run.capture(cfg, cache=store, verify=False)
        key = run.trace_key(cfg)
        for _ in range(3):
            entry = TraceStore(disk_dir=tmp_path).get(key)
            assert entry is not None
        assert replay_trace(cfg, entry).timing \
            == run.run(cfg, verify=False).timing

    def test_ingest_remote_reads_nothing(self, tmp_path):
        """Recording a worker's disk-routed capture is no serve: the
        entry is neither read nor restamped (the worker's write just
        stamped it), and the serve counters do not move."""
        writer = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)
        _set_age(path, 1000)
        aged = path.stat().st_mtime
        reader = TraceStore(disk_dir=tmp_path)
        assert reader.ingest_remote(key) is None
        assert path.stat().st_mtime == aged
        assert reader.stats["disk_hits"] == 0
        assert reader.stats["remote_puts"] == 1

    def test_gc_still_validates_bumped_entries(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(store)
        assert TraceStore(disk_dir=tmp_path).get(key) is not None
        summary = store.gc()
        assert summary["purged_stale"] == 0
        assert summary["entries"] == 1


# ----------------------------------------------------------------------
# Warm-serve write cost: a disk hit writes no bytes at all
# ----------------------------------------------------------------------
class TestWarmServeWriteCost:
    def test_warm_serve_writes_nothing(self, tmp_path):
        writer = TraceStore(disk_dir=tmp_path)
        key = _capture_entry(writer)
        path = _entry_file(writer, key)
        entry_bytes = path.read_bytes()

        # Even a plan that fails every write cannot touch a serve.
        reader = TraceStore(disk_dir=tmp_path,
                            fault_plan=FaultPlan(seed=3, enospc_rate=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.get(key) is not None  # warm disk hit
        assert not reader.memory_only
        assert path.read_bytes() == entry_bytes
        assert sorted(tmp_path.iterdir()) == [path]
