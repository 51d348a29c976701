"""Superblock replay: the periodic-body scan, the generated body code,
and its exactness against the reference loop.

:mod:`repro.timing.superblock` replays periodic runs of issue rows with
generated straight-line functions.  This module pins the scan on
synthetic streams, holds hand-built traces whose bodies exercise every
resolved branch (vsetvl rows, zero-element masked accesses, reductions,
dest-scalar rows, multi-slot groups, one-off rows between blocks, a
trailing partial period) and random looped programs on random machine
specs against :meth:`TimingEngine.replay_reference`, and pins the
generated source text.  The zoo reach of the scan is pinned beside the
queue-depth tests in ``tests/test_replay_hazards.py``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.functional.trace import (MemAccess, ScalarEvent, VectorEvent,
                                    VsetvlEvent)
from repro.functional.trace_pack import unpack_trace
from repro.fuzz.gen import ProgramGen, case_from_chunks
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.isa import Assembler
from repro.isa.instructions import MemPattern
from repro.kernels import ZOO
from repro.machine import get_machine
from repro.machine.spec import MachineSpec
from repro.timing import superblock
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan
from repro.uarch import build_model
from tests.trace_builder import build_trace

#: Generated source of the fmatmul inner-loop body (10 rows).
GOLDEN_FMATMUL = Path(__file__).parent / "data" / "superblock_fmatmul.txt"


def _scan(classes, counts=None):
    """Scan a row-class stream; ``counts`` are the scalar events before
    each row (none by default)."""
    row_class = np.asarray(classes, dtype=np.int64)
    if counts is None:
        counts = np.zeros(row_class.size, dtype=np.int64)
    return superblock.scan(row_class, np.cumsum(counts))


# ----------------------------------------------------------------------
# The scan.
# ----------------------------------------------------------------------
class TestScan:
    def test_short_plans_are_not_scanned(self):
        body = [1, 2, 3, 4]
        n = superblock.MIN_ROWS - 1
        assert _scan((body * n)[:n]) == ()

    def test_trailing_partial_period_stays_outside(self):
        body = [1, 2, 3, 4, 5, 6, 7]
        rows = [9, 8] + body * 100 + body[:3]
        assert _scan(rows) == ((2, 7, 100),)

    def test_shortest_covering_period_wins(self):
        # Period 14 covers the same rows as period 7; 7 is taken.
        rows = [1, 2, 3, 4, 5, 6, 7] * 100
        assert _scan(rows) == ((0, 7, 100),)

    def test_outer_loop_beats_a_thin_inner_one(self):
        # Inner runs of 4 x [1, 2] cover 8 of every 40 rows; the outer
        # body covers them all.
        outer = [1, 2] * 4 + list(range(10, 42))
        assert _scan(outer * 20) == ((0, 40, 20),)

    def test_inner_loop_within_an_eighth_wins(self):
        # The outer body (82 rows) covers 1640 rows, the inner one (10
        # rows) 1600: close enough that the shorter body is taken.
        outer = list(range(1, 11)) * 8 + [11, 12]
        assert _scan(outer * 20) == tuple((82 * i, 10, 8)
                                          for i in range(20))

    def test_scalar_counts_are_part_of_the_key(self):
        body = [1, 2, 3, 4]
        rows = body * 200
        counts = [0] * len(rows)
        counts[400] = 1  # one extra scalar event before row 400
        # Row 400 matches no other row, so the second block starts
        # after it and leaves a 3-row partial period at the end.
        assert _scan(rows, counts) == ((0, 4, 100), (401, 4, 99))

    def test_too_few_repeats_are_no_block(self):
        body = list(range(1, 201))
        rows = body * (superblock.MIN_REPS - 1)
        assert _scan(rows) == ()


# ----------------------------------------------------------------------
# Hand-built bodies against the reference loop.
# ----------------------------------------------------------------------
def _edge_program():
    """Instructions of every row kind a body resolves statically."""
    a = Assembler("superblock_edges")
    ins = {
        "vle": a.vle64_v("v8", "x5"),
        "vlm": a.vlm_v("v0", "x6"),
        "vfmacc": a.vfmacc_vv("v12", "v8", "v10", masked=True),
        "vfadd2": a.vfadd_vv("v16", "v8", "v12"),
        "vfred": a.vfredusum_vs("v4", "v12", "v5"),
        "vfmv": a.vfmv_f_s("f1", "v4"),
        "odd": a.vfadd_vv("v2", "v3", "v3"),
    }
    a.halt()
    return a.build(), ins


def _edge_events(ins, periods: int, odd_every: int) -> list:
    """``periods`` bodies, an ``odd`` vector row (at a vl used nowhere
    else: a row class of its own) before every ``odd_every``-th, then
    the first half of one more body."""
    events = []
    body = []

    def scalar(kind, addr=None):
        body.append(lambda i: events.append(
            ScalarEvent(kind, addr(i), 8) if addr else ScalarEvent(kind)))

    def vector(name, vl, lmul=1, mem=None):
        body.append(lambda i: events.append(VectorEvent(
            ins[name], vl, 64, lmul, mem(i) if mem else None)))

    body.append(lambda i: events.append(VsetvlEvent(16, 64, 1)))
    # The loads walk memory, so the D$ costs differ per period.
    scalar("load", lambda i: 0x1000 + 40 * i)
    vector("vle", 16, mem=lambda i: MemAccess(
        base=0x2000 + 128 * i, stride=8, count=16, ew_bytes=8,
        pattern=MemPattern.UNIT, is_store=False))
    # A masked access with no active element: cn == 0.
    vector("vlm", 16, mem=lambda i: MemAccess(
        base=0x3000, stride=1, count=0, ew_bytes=1,
        pattern=MemPattern.MASK, is_store=False))
    scalar("alu")
    vector("vfmacc", 16)
    vector("vfadd2", 16, lmul=2)  # v8-v9 and v12-v13: multi-slot groups
    vector("vfred", 16)
    scalar("branch")
    vector("vfmv", 16)
    scalar("store", lambda i: 0x4000 + 8 * (i % 7))
    for i in range(periods):
        if i % odd_every == 0:
            events.append(VectorEvent(ins["odd"], 24, 64, 1))
        for emit in body:
            emit(i)
    for emit in body[:len(body) // 2]:
        emit(periods)
    return events


class TestEdgeBodies:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("machine", ["8L-Ara2", "8L-AraXL"])
    def test_resolved_branches_match_reference(self, machine, depth):
        program, ins = _edge_program()
        events = _edge_events(ins, periods=100, odd_every=25)
        trace = build_trace(program, events)
        rows = [e for e in events if not isinstance(e, ScalarEvent)]
        odd_rows = [i for i, e in enumerate(rows) if e.vl == 24]
        assert len(odd_rows) == 4
        config = dataclasses.replace(get_machine(machine),
                                     unit_queue_depth=depth)
        engine = TimingEngine(build_model(config))
        reference = engine.replay_reference(events)
        for form in (trace, unpack_trace(trace.blob, program)):
            plan = ReplayPlan.from_trace(form)
            # One block of 24-25 bodies after each odd row (the row
            # after an odd row has one scalar event fewer).
            assert [p for _, p, _ in plan.superblocks] == [7] * 4
            assert all(r >= 24 for _, _, r in plan.superblocks)
            for start, period, reps in plan.superblocks:
                assert all(not start <= i < start + period * reps
                           for i in odd_rows)
            assert engine.replay(form) == reference

    def test_scalar_cost_loops_match_reference(self, monkeypatch):
        """Periods with many scalar events add them in per-row loops."""
        monkeypatch.setattr(superblock, "_MAX_UNPACKED", 0)
        monkeypatch.setattr(superblock, "_FUNCTIONS", {})
        program, ins = _edge_program()
        events = _edge_events(ins, periods=100, odd_every=25)
        engine = TimingEngine(build_model(get_machine("8L-AraXL")))
        assert engine.replay(build_trace(program, events)) == \
            engine.replay_reference(events)
        (structure,) = superblock._FUNCTIONS
        assert "for x in costs[k0 + " in superblock._source(structure)

    def test_body_functions_share_one_structure(self):
        program, ins = _edge_program()
        plan = ReplayPlan.from_trace(build_trace(
            program, _edge_events(ins, periods=100, odd_every=25)))
        functions = {block[0] for _, _, block in superblock.segments(plan)
                     if block is not None}
        assert len(functions) == 1


# ----------------------------------------------------------------------
# Random looped programs on random machine specs.
# ----------------------------------------------------------------------
_CAPTURE_CONFIG = get_machine("8L-Ara2")


@st.composite
def looped_cases(draw):
    """A random loop body (1-40 generator ops) run ``trips`` (8-64)
    times per pass of an outer loop with enough passes that the plan
    reaches the scan threshold."""
    seed = draw(st.integers(0, 2 ** 20))
    ops = draw(st.integers(1, 40))
    trips = draw(st.integers(8, 64))
    gen = ProgramGen(seed, size=1)
    pre = gen._preamble()
    gen.depth = 1  # inside a loop: no nested loops or reconfigs
    body: list = []
    for _ in range(ops):
        body.extend(gen._EMITTERS[gen.rng.choice(gen._menu(in_loop=True))](
            gen))
    passes = -(-superblock.MIN_ROWS // (ops * trips))
    loop = [("li", ("x29", passes), {}), ("label", ("outer",), {}),
            ("li", ("x28", trips), {}), ("label", ("inner",), {}),
            *body,
            ("addi", ("x28", "x28", -1), {}), ("bnez", ("x28", "inner"), {}),
            ("addi", ("x29", "x29", -1), {}), ("bnez", ("x29", "outer"), {})]
    return case_from_chunks(generate_case(seed, size=1),
                            (pre, ("op", tuple(loop)), gen._epilogue()))


@st.composite
def machine_specs(draw):
    """Random valid 8-lane machines (the captures' VLEN)."""
    return MachineSpec.from_dict({
        "family": draw(st.sampled_from(["ara2", "araxl"])), "lanes": 8,
        "memory": {"l2_latency_cycles": draw(st.integers(0, 40)),
                   "read_bytes_per_cycle_per_lane":
                       draw(st.sampled_from([0.5, 2.0, 8.0, 16.0]))},
        "pipeline": {"unit_queue_depth": draw(st.integers(1, 6)),
                     "fpu_latency": draw(st.integers(1, 9)),
                     "valu_latency": draw(st.integers(1, 4)),
                     "sldu_latency": draw(st.integers(0, 4)),
                     "masku_latency": draw(st.integers(0, 4)),
                     "dispatch_latency": draw(st.integers(1, 6))},
    }).to_config()


def _capture(case):
    return kernel_for_case(case, _CAPTURE_CONFIG).capture(
        _CAPTURE_CONFIG, verify=False).trace


class TestLoopedPrograms:
    def test_strategy_reaches_superblocks(self):
        plan = ReplayPlan.from_trace(_capture(_fixed_looped_case()))
        assert plan.superblocks

    @settings(max_examples=12, deadline=None)
    @given(case=looped_cases(), config=machine_specs())
    def test_replay_matches_reference(self, case, config):
        trace = _capture(case)
        engine = TimingEngine(build_model(config))
        assert engine.replay(trace) == engine.replay_reference(trace)


def _fixed_looped_case():
    """One looped case built the way :func:`looped_cases` builds them."""
    gen = ProgramGen(7, size=1)
    pre = gen._preamble()
    body = [("vfadd_vv", ("v8", "v8", "v9"), {}),
            ("addi", ("x10", "x10", 1), {}),
            ("vfmacc_vv", ("v10", "v8", "v9"), {})]
    loop = [("li", ("x1", 16), {}),
            ("vsetvli", ("x2", "x1"), {"sew": 64, "lmul": 1}),
            ("li", ("x29", 8), {}), ("label", ("outer",), {}),
            ("li", ("x28", 40), {}), ("label", ("inner",), {}),
            *body,
            ("addi", ("x28", "x28", -1), {}), ("bnez", ("x28", "inner"), {}),
            ("addi", ("x29", "x29", -1), {}), ("bnez", ("x29", "outer"), {})]
    return case_from_chunks(generate_case(7, size=1),
                            (pre, ("op", tuple(loop)), gen._epilogue()))


# ----------------------------------------------------------------------
# Generated code: pinned text, one function per structure.
# ----------------------------------------------------------------------
class TestGeneratedCode:
    def test_fmatmul_body_source_is_pinned(self):
        """The generated text is a pure function of the structure.  When
        the generator changes on purpose, rewrite the file from
        ``superblock._source(structure)`` and review its diff."""
        config = get_machine("8L-Ara2")
        trace = ZOO["fmatmul"](config, 64).capture(config,
                                                   verify=False).trace
        plan = ReplayPlan.from_trace(trace)
        start, period, _ = plan.superblocks[0]
        assert period == 10
        structure, _, _ = superblock._structure(
            plan.classes, plan.row_class, plan.seg_end, start, period)
        assert superblock._source(structure) == GOLDEN_FMATMUL.read_text()

    def test_paper_kernels_need_three_functions(self, monkeypatch):
        """Structures carry no element counts or rates, so three
        kernels on three machines share one function per body shape."""
        monkeypatch.setattr(superblock, "_FUNCTIONS", {})
        for machine in ("8L-Ara2", "16L-AraXL", "64L-AraXL"):
            config = get_machine(machine)
            engine = TimingEngine(build_model(config))
            for name in ("fconv2d", "fmatmul", "jacobi2d"):
                engine.replay(ZOO[name](config, 64).capture(
                    config, verify=False).trace)
        assert len(superblock._FUNCTIONS) == 3
