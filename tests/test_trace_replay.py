"""Trace-once / replay-many pipeline: reuse, cache keying, spy counts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.fig7_latency import run_fig7
from repro.functional.executor import Executor
from repro.kernels import KERNELS, build_fmatmul
from repro.params import Ara2Config, AraXLConfig
from repro.sim import SimPool, Simulator, TraceCache, replay_trace
from repro.errors import ConfigError


class TestReplayEqualsFreshRun:
    """Replaying one captured trace must be bit-identical to end-to-end."""

    @pytest.mark.parametrize("kernel", ("fmatmul", "fdotproduct", "jacobi2d"))
    def test_cross_machine_same_vlen(self, kernel):
        # Ara2-8L and AraXL-8L share VLEN=8192: one capture serves both.
        ara2 = Ara2Config(lanes=8)
        araxl = AraXLConfig(lanes=8)
        kw = {"m": 8, "k": 16} if kernel == "fmatmul" else (
            {"rows": 8} if kernel == "jacobi2d" else {})
        run = KERNELS[kernel](ara2, 64, **kw)

        captured = run.capture(ara2, verify=True)
        replay_ara2 = replay_trace(ara2, captured).timing
        replay_araxl = replay_trace(araxl, captured).timing

        fresh_ara2 = run.run(ara2, verify=False).timing
        fresh_araxl = run.run(araxl, verify=False).timing
        assert replay_ara2 == fresh_ara2
        assert replay_araxl == fresh_araxl
        # Different interconnects must still time differently.
        assert replay_ara2.machine != replay_araxl.machine

    def test_timing_knobs_share_one_trace(self):
        base = AraXLConfig(lanes=8)
        run = build_fmatmul(base, 128, m=8, k=16)
        captured = run.capture(base, verify=False)
        for knob in ({"glsu_extra_regs": 4}, {"reqi_extra_regs": 1},
                     {"ringi_extra_regs": 1}):
            cut = dataclasses.replace(base, **knob)
            assert replay_trace(cut, captured).timing == \
                run.run(cut, verify=False).timing

    def test_vlen_mismatch_rejected(self):
        small = Ara2Config(lanes=4)
        run = build_fmatmul(small, 64, m=8, k=16)
        captured = run.capture(small, verify=False)
        with pytest.raises(ConfigError):
            replay_trace(Ara2Config(lanes=8), captured)


class TestTraceCacheKeying:
    def test_hit_same_point_miss_other_vlen_and_setup(self):
        cache = TraceCache()
        ara2 = Ara2Config(lanes=8)
        araxl = AraXLConfig(lanes=8)
        run = build_fmatmul(ara2, 64, m=8, k=16)

        run.capture(ara2, cache=cache, verify=False)
        assert cache.stats["misses"] == 1 and cache.stats["hits"] == 0

        # Same program + same VLEN (different interconnect): hit.
        run2 = build_fmatmul(araxl, 64, m=8, k=16)
        assert run2.trace_key(araxl) == run.trace_key(ara2)
        run2.capture(araxl, cache=cache, verify=False)
        assert cache.stats["hits"] == 1

        # Different VLEN: miss (key includes vlen_bits and fingerprint).
        big = Ara2Config(lanes=16)
        run_big = build_fmatmul(big, 64, m=8, k=16)
        assert run_big.trace_key(big) != run.trace_key(ara2)
        run_big.capture(big, cache=cache, verify=False)
        assert cache.stats["misses"] == 2

        # Different setup (problem size): miss even at equal VLEN.
        run_other = build_fmatmul(ara2, 64, m=8, k=32)
        assert run_other.trace_key(ara2) != run.trace_key(ara2)
        run_other.capture(ara2, cache=cache, verify=False)
        assert cache.stats["misses"] == 3

    def test_lru_eviction(self):
        cache = TraceCache(capacity=1)
        cfg = Ara2Config(lanes=4)
        a = build_fmatmul(cfg, 64, m=8, k=16)
        b = build_fmatmul(cfg, 64, m=8, k=32)
        a.capture(cfg, cache=cache, verify=False)
        b.capture(cfg, cache=cache, verify=False)  # evicts a
        assert len(cache) == 1
        a.capture(cfg, cache=cache, verify=False)
        assert cache.stats["hits"] == 0 and cache.stats["misses"] == 3

    def test_disk_layer_roundtrip(self, tmp_path):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        cache = TraceCache(disk_dir=tmp_path)
        captured = run.capture(cfg, cache=cache, verify=False)
        fresh_report = replay_trace(cfg, captured).timing

        # New process simulation: empty memory cache, same disk dir.
        cold = TraceCache(disk_dir=tmp_path)
        from_disk = cold.get(run.trace_key(cfg))
        assert from_disk is not None
        assert cold.stats["disk_hits"] == 1
        assert replay_trace(cfg, from_disk).timing == fresh_report

    def test_check_runs_once_per_captured_trace(self, monkeypatch):
        """The check runs with each functional execution it verifies,
        never on a cached trace or a replay."""
        cache = TraceCache()
        cfg = Ara2Config(lanes=8)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        checks, executions = [], []
        orig_check, orig_exec = run.check, Executor.run
        run = dataclasses.replace(
            run, check=lambda sim: checks.append(1) or orig_check(sim))

        def counting_exec(self, program, *args, **kwargs):
            executions.append(1)
            return orig_exec(self, program, *args, **kwargs)

        monkeypatch.setattr(Executor, "run", counting_exec)
        run.capture(cfg, cache=cache, verify=True)
        run.capture(cfg, cache=cache, verify=True)  # executes again
        captured = run.capture(cfg, cache=cache, verify=False)  # hit
        replay_trace(AraXLConfig(lanes=8), captured)
        assert checks == executions == [1, 1]
        assert cache.stats["hits"] == 1


class TestFunctionalExecutionCounts:
    """The sweeps must execute functionally once per operating point."""

    @pytest.fixture
    def exec_counter(self, monkeypatch):
        calls = []
        orig = Executor.run

        def counting_run(self, program, *args, **kwargs):
            calls.append(program.name)
            return orig(self, program, *args, **kwargs)

        monkeypatch.setattr(Executor, "run", counting_run)
        return calls

    def test_fig7_one_functional_run_per_kernel_size(self, exec_counter):
        kernels = ("fmatmul", "fdotproduct", "softmax")
        sizes = (64, 128)
        points = run_fig7(kernels=kernels, bytes_per_lane=sizes,
                          lanes=16, scale="reduced")
        # 3 interfaces x |kernels| x |sizes| points...
        assert len(points) == 3 * len(kernels) * len(sizes)
        # ...but exactly ONE functional execution per (kernel, size).
        assert len(exec_counter) == len(kernels) * len(sizes)

    def test_fig7_warm_cache_runs_zero_functional(self, exec_counter):
        cache = TraceCache()
        kw = dict(kernels=("fmatmul",), bytes_per_lane=(64,), lanes=16,
                  scale="reduced", pool=SimPool(cache=cache))
        cold = run_fig7(**kw)
        assert len(exec_counter) == 1
        warm = run_fig7(**kw)
        assert len(exec_counter) == 1  # no new functional runs
        assert [(p.interface, p.drop) for p in cold] == \
            [(p.interface, p.drop) for p in warm]
