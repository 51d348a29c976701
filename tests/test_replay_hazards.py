"""Scoreboard hazard edges, scoreboard slots, queue depths and
replay-plan memo isolation.

The fuzzer drives these paths statistically; this module pins them
deterministically — full 32-register pressure, WAW/WAR orderings, the
register-to-slot mapping of the plan's scoreboard, the per-unit issue
rings at non-default queue depths (kernel zoo, fuzz seeds and random
valid machine specs), and the
:class:`~repro.timing.replay_plan.ReplayPlan` per-machine memo tier
staying isolated across machine specs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.isa import Assembler
from repro.kernels import ZOO
from repro.machine import get_machine
from repro.machine.spec import MachineSpec
from repro.params import AraXLConfig
from repro.sim import Simulator
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import CLASS_FIELDS, ReplayPlan
from repro.uarch import build_model


def _capture(program, config):
    sim = Simulator(config)
    return sim.capture(program).trace


def _cycles(program, config) -> float:
    return TimingEngine(build_model(config)).replay(
        _capture(program, config)).cycles


# ----------------------------------------------------------------------
# FlatScoreboard hazard edges.
# ----------------------------------------------------------------------
class TestScoreboardHazards:
    def test_all_32_registers_live(self, ara2_small):
        """Every register in flight: fast path must equal the reference."""
        asm = Assembler("pressure32")
        asm.li("x1", 64)
        asm.vsetvli("x2", "x1", sew=64, lmul=8)
        for base in ("v0", "v8", "v16", "v24"):
            asm.vid_v(base)
        for base in ("v0", "v8", "v16", "v24"):
            asm.vadd_vv(base, base, base)        # WAW on every group
        for base, single in (("v0", "v4"), ("v8", "v5"),
                             ("v16", "v6"), ("v24", "v7")):
            asm.vredsum_vs(single, base, single)  # WAR pressure (v4-v7
        asm.vmv_v_i("v0", 1)                      # live inside groups)
        asm.halt()
        trace = _capture(asm.build(), ara2_small)
        engine = TimingEngine(build_model(ara2_small))
        assert engine.replay(trace) == engine.replay_reference(trace)

    def test_waw_serializes_same_register(self, ara2_small):
        def program(dest: str):
            asm = Assembler(f"waw_{dest}")
            asm.li("x1", 64)
            asm.vsetvli("x2", "x1", sew=64, lmul=1)
            asm.li("x3", 0)
            asm.vle64_v("v8", "x3")          # slow producer writing v8
            asm.vadd_vv(dest, "v16", "v16")  # WAW when dest == v8
            asm.halt()
            return asm.build()

        waw = _cycles(program("v8"), ara2_small)
        independent = _cycles(program("v10"), ara2_small)
        assert waw >= independent

    def test_war_orders_write_after_read(self, ara2_small):
        def program(dest: str):
            asm = Assembler(f"war_{dest}")
            asm.li("x1", 64)
            asm.vsetvli("x2", "x1", sew=64, lmul=1)
            asm.vfdiv_vv("v16", "v8", "v8")  # slow reader of v8
            asm.li("x3", 0)
            asm.vle64_v(dest, "x3")          # WAR when dest == v8
            asm.halt()
            return asm.build()

        war = _cycles(program("v8"), ara2_small)
        independent = _cycles(program("v10"), ara2_small)
        assert war >= independent

    def test_group_overlap_hazard_identity(self, ara2_small, araxl_small):
        """LMUL groups overlapping singles: fast path == reference."""
        asm = Assembler("group_overlap")
        asm.li("x1", 32)
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vid_v("v8")                      # writes v8..v11
        asm.vsetvli("x2", "x1", sew=64, lmul=1)
        asm.vadd_vv("v9", "v9", "v9")        # single inside the group
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vadd_vv("v8", "v8", "v8")        # group over the dirty single
        asm.halt()
        for config in (ara2_small, araxl_small):
            trace = _capture(asm.build(), config)
            engine = TimingEngine(build_model(config))
            assert engine.replay(trace) == engine.replay_reference(trace)


# ----------------------------------------------------------------------
# Scoreboard slots: registers every group touches together share one.
# ----------------------------------------------------------------------
def _class_slots(plan) -> list[tuple]:
    """``(dest slots, source slot groups)`` of every vector class."""
    out = []
    for static in plan.classes[1:]:
        fields = dict(zip(CLASS_FIELDS, static))
        sources = tuple((s,) for s in fields["ones"]) + fields["multi"]
        out.append((fields["dest"], sources))
    return out


class TestScoreboardSlots:
    def test_uniform_lmul4_groups_take_one_slot(self, ara2_small,
                                                araxl_small):
        asm = Assembler("lmul4")
        asm.li("x1", 32)
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vid_v("v8")
        asm.vid_v("v12")
        asm.vadd_vv("v16", "v8", "v12")
        asm.vmul_vv("v20", "v16", "v8")
        asm.vadd_vv("v8", "v20", "v16")
        asm.halt()
        for config in (ara2_small, araxl_small):
            trace = _capture(asm.build(), config)
            plan = ReplayPlan.from_trace(trace)
            assert plan.n_slots == 4  # v8, v12, v16, v20
            for dest, sources in _class_slots(plan):
                assert len(dest) == 1
                assert all(len(group) == 1 for group in sources)
            engine = TimingEngine(build_model(config))
            assert engine.replay(trace) == engine.replay_reference(trace)

    def test_overlapping_single_splits_its_group(self, ara2_small,
                                                 araxl_small):
        """The ``test_group_overlap_hazard_identity`` program: v9 gets a
        slot of its own, v8/v10/v11 share one."""
        asm = Assembler("group_overlap_slots")
        asm.li("x1", 32)
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vid_v("v8")
        asm.vsetvli("x2", "x1", sew=64, lmul=1)
        asm.vadd_vv("v9", "v9", "v9")
        asm.vsetvli("x2", "x1", sew=64, lmul=4)
        asm.vadd_vv("v8", "v8", "v8")
        asm.halt()
        for config in (ara2_small, araxl_small):
            trace = _capture(asm.build(), config)
            plan = ReplayPlan.from_trace(trace)
            assert plan.n_slots == 2
            (vid_dest, _), (v9_dest, v9_src), (v8_dest, v8_src) = \
                _class_slots(plan)
            assert len(v9_dest) == 1 and v9_src == (v9_dest,)
            assert len(vid_dest) == 2 and v9_dest[0] in vid_dest
            assert v8_dest == vid_dest and v8_src == (vid_dest,)
            engine = TimingEngine(build_model(config))
            assert engine.replay(trace) == engine.replay_reference(trace)


# ----------------------------------------------------------------------
# Issue rings at non-default queue depths.
# ----------------------------------------------------------------------
_ZOO_CONFIG = get_machine("8L-Ara2")


@pytest.fixture(scope="module")
def zoo_traces():
    return {name: ZOO[name](_ZOO_CONFIG, 64).capture(
        _ZOO_CONFIG, verify=False).trace for name in sorted(ZOO)}


@pytest.fixture(scope="module")
def fuzz_traces():
    return [kernel_for_case(generate_case(seed, size=40), _ZOO_CONFIG)
            .capture(_ZOO_CONFIG, verify=False).trace for seed in range(4)]


def _assert_fast_matches_reference(config, traces) -> None:
    engine = TimingEngine(build_model(config))
    for trace in traces:
        assert engine.replay(trace) == engine.replay_reference(trace)


class TestQueueDepth:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("machine", ["8L-Ara2", "8L-AraXL"])
    def test_zoo_and_fuzz_at_shallow_queues(self, zoo_traces, fuzz_traces,
                                            machine, depth):
        config = dataclasses.replace(get_machine(machine),
                                     unit_queue_depth=depth)
        _assert_fast_matches_reference(
            config, list(zoo_traces.values()) + fuzz_traces)

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(["ara2", "araxl"]),
           depth=st.integers(1, 6),
           l2=st.integers(0, 40),
           fpu=st.integers(1, 9),
           valu=st.integers(1, 4),
           sldu=st.integers(0, 4),
           masku=st.integers(0, 4),
           dispatch=st.integers(1, 6),
           read_bw=st.sampled_from([0.5, 2.0, 8.0, 16.0]))
    def test_random_valid_specs(self, fuzz_traces, family, depth, l2, fpu,
                                valu, sldu, masku, dispatch, read_bw):
        """ReplayPlan == replay_reference on random valid 8-lane specs
        (the lane count keeps the captured traces' VLEN); the fuzz
        traces keep each example cheap."""
        config = MachineSpec.from_dict({
            "family": family, "lanes": 8,
            "memory": {"l2_latency_cycles": l2,
                       "read_bytes_per_cycle_per_lane": read_bw},
            "pipeline": {"unit_queue_depth": depth, "fpu_latency": fpu,
                         "valu_latency": valu, "sldu_latency": sldu,
                         "masku_latency": masku,
                         "dispatch_latency": dispatch},
        }).to_config()
        _assert_fast_matches_reference(config, fuzz_traces)


# ----------------------------------------------------------------------
# ReplayPlan per-machine memo tier.
# ----------------------------------------------------------------------
def _hazard_program():
    asm = Assembler("memo_probe")
    asm.li("x1", 64)
    asm.vsetvli("x2", "x1", sew=64, lmul=2)
    asm.li("x3", 0)
    asm.vle64_v("v8", "x3")
    asm.vfmacc_vv("v10", "v8", "v8")
    asm.vredsum_vs("v4", "v10", "v4")
    asm.halt()
    return asm.build()


class TestReplayPlanMemo:
    def test_memo_isolated_across_machines(self):
        ara2 = get_machine("8L-Ara2")
        araxl = get_machine("8L-AraXL")
        trace = _capture(_hazard_program(), ara2)  # same VLEN on both
        first = TimingEngine(build_model(ara2)).replay(trace)
        other = TimingEngine(build_model(araxl)).replay(trace)
        again = TimingEngine(build_model(ara2)).replay(trace)
        assert first == again            # memo hit, not invalidated...
        assert first != other            # ...and not cross-contaminated

    def test_memo_invalidated_by_spec_change(self):
        base = AraXLConfig(lanes=8)
        slow = dataclasses.replace(base, ring_hop_latency=8)
        trace = _capture(_hazard_program(), base)
        fast_report = TimingEngine(build_model(base)).replay(trace)
        slow_report = TimingEngine(build_model(slow)).replay(trace)
        # Same family and lane count, pure timing-knob change: the memo
        # must key on the spec, not the machine name.
        assert slow_report.cycles > fast_report.cycles
        assert TimingEngine(build_model(base)).replay(trace) == fast_report

    def test_memoized_report_is_a_defensive_copy(self):
        config = get_machine("8L-Ara2")
        trace = _capture(_hazard_program(), config)
        engine = TimingEngine(build_model(config))
        first = engine.replay(trace)
        pristine = dict(first.unit_busy)
        first.unit_busy.clear()          # caller mutates their copy
        second = engine.replay(trace)
        assert second.unit_busy == pristine
