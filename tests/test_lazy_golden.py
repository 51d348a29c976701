"""Lazy golden data: planning never pays for arrays, capture does.

Pins the skeleton split from the pool-unification PR: building a
``KernelRun`` (what every sweep planner does for trace keys and peak
bounds) touches only the program-skeleton memo, while golden input /
reference arrays are built on first ``setup``/``check`` use and then
memoized process-wide under a byte budget.
"""

from __future__ import annotations

import pytest

from repro.kernels import KERNELS, build_fmatmul
import repro.kernels.common as common
from repro.params import Ara2Config, AraXLConfig
from repro.sim import CaptureTask, Simulator, TraceCache

_REDUCED_KW = {"fmatmul": {"m": 16, "k": 64},
               "fconv2d": {"rows": 32}, "jacobi2d": {"rows": 32}}


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test counts builds from a cold memo."""
    common.reset_skeleton_caches()
    yield
    common.reset_skeleton_caches()


class TestPlanningIsGoldenFree:
    def test_planning_never_materializes_golden_arrays(self):
        """Build every kernel at several operating points, take trace
        keys, peak bounds and setup ids — the whole planning surface —
        and assert not one golden array was built."""
        before = common.golden_builds()
        for config in (Ara2Config(lanes=8), AraXLConfig(lanes=16)):
            for bpl in (64, 128):
                for name, builder in KERNELS.items():
                    kw = _REDUCED_KW.get(name, {})
                    run = builder(config, bpl, **kw)
                    run.trace_key(config)
                    assert run.max_flops_per_cycle > 0
                    assert run.setup_id
                    assert run.program.fingerprint
        assert common.golden_builds() == before

    def test_capture_task_specs_and_keys_stay_golden_free(self):
        """SimPool planning (CaptureTask.build / .key) is program-
        only too — workers, not the parent, pay for arrays."""
        before = common.golden_builds()
        cfg = AraXLConfig(lanes=8)
        keys = set()
        for name in KERNELS:
            task = CaptureTask.for_kernel(name, cfg, 64,
                                          _REDUCED_KW.get(name))
            task.build()
            keys.add(task.key())
        assert len(keys) == len(KERNELS)
        assert common.golden_builds() == before


class TestGoldenMaterialization:
    def test_setup_builds_once_then_memoizes(self):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        before = common.golden_builds()
        sim = Simulator(cfg)
        run.setup(sim)
        assert common.golden_builds() == before + 1
        # A second run of the same problem reuses the memoized arrays.
        rebuilt = build_fmatmul(cfg, 64, m=8, k=16)
        rebuilt.setup(Simulator(cfg))
        assert common.golden_builds() == before + 1

    def test_check_uses_the_same_entry_as_setup(self):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        before = common.golden_builds()
        result = run.run(cfg, verify=True)  # setup + execute + check
        assert result.timing.cycles > 0
        assert common.golden_builds() == before + 1  # one build total

    def test_verified_capture_still_checks_correctly(self):
        """The lazy path feeds the golden check the same arrays: a
        verified capture passes, and its trace replays identically."""
        cfg = Ara2Config(lanes=4)
        cache = TraceCache()
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, cache=cache, verify=True)
        assert captured.extra["verified"]

    def test_unverified_sweep_never_builds_reference_output(self):
        """verify=False captures still build inputs (setup needs them)
        but exactly once per problem, not per operating point."""
        cfg_small, cfg_big = Ara2Config(lanes=4), Ara2Config(lanes=8)
        before = common.golden_builds()
        for cfg in (cfg_small, cfg_big):
            run = build_fmatmul(cfg, 64, m=8, k=16)
            run.capture(cfg, verify=False)
        # Different VLEN -> different vl -> two problems, two builds.
        assert common.golden_builds() == before + 2


class TestProgramSkeletonSharing:
    def test_equal_problems_share_one_program(self):
        """Fig 6's (8L, 128 B/lane) and (16L, 64 B/lane) solve the same
        (vl, LMUL) problem: one assembled program object serves both
        (their trace keys still differ — VLEN is part of the key).
        Uses the raw builders: the registry's per-operating-point memo
        above would otherwise serve entries predating this test's cache
        reset."""
        raw_build = build_fmatmul.__wrapped__
        a = raw_build(Ara2Config(lanes=8), 128, m=8, k=16)
        b = raw_build(Ara2Config(lanes=16), 64, m=8, k=16)
        assert a.problem["vl"] == b.problem["vl"]
        assert a.program is b.program
        assert a.trace_key(Ara2Config(lanes=8)) \
            != b.trace_key(Ara2Config(lanes=16))

    def test_reset_clears_both_memos(self):
        # Bypass the registry's per-operating-point KernelRun memo: this
        # test is about the two skeleton layers underneath it.
        raw_build = build_fmatmul.__wrapped__
        cfg = Ara2Config(lanes=4)
        first = raw_build(cfg, 64, m=8, k=16)
        first.setup(Simulator(cfg))
        built = common.golden_builds()
        common.reset_skeleton_caches()
        again = raw_build(cfg, 64, m=8, k=16)
        assert again.program is not first.program  # cold program memo
        again.setup(Simulator(cfg))
        assert common.golden_builds() == built + 1  # cold golden memo
