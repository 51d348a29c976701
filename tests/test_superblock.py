"""Superblock replay: the periodic-body scan, the generated body code,
its steady-state fast-forward, and its exactness against the reference
loop.

:mod:`repro.timing.superblock` replays periodic runs of issue rows with
generated straight-line functions.  This module pins the scan on
synthetic streams, holds hand-built traces whose bodies exercise every
resolved branch (vsetvl rows, zero-element masked accesses, reductions,
dest-scalar rows, multi-slot groups, one-off rows between blocks, a
trailing partial period) and random looped programs on random machine
specs against :meth:`TimingEngine.replay_reference`, checks that a
replay with fast-forward on, one with it off and the reference loop
agree to the bit (``float.hex``) on looped programs, binade crossings,
costs that do not repeat, non-dyadic sums and every pinned capture on
every registry machine, and pins the generated source text.  The code
a plan section stores is a fresh compile of that text, and a warm read
replays from it without generating or compiling anything.  The zoo
reach of the scan is pinned beside the queue-depth tests in
``tests/test_replay_hazards.py``.
"""

from __future__ import annotations

import dataclasses
import marshal
import pickle
import zlib
from fractions import Fraction
from math import frexp
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
from repro.machine import get_machine, list_machines
from repro.machine.spec import MachineSpec
from repro.sim.trace_cache import TraceCache, disk_path
from repro.timing import superblock
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import (ReplayPlan, _MachineRows,
                                      compiler_digest)
from repro.uarch import build_model
from tests.test_trace_capture import PINNED
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
        """Fast-forward on, off and the reference loop agree."""
        on, off, reference = _on_off_reference(_capture(case), config)
        assert on == off == reference


_LOOP_BODY = (("vfadd_vv", ("v8", "v8", "v9"), {}),
              ("addi", ("x10", "x10", 1), {}),
              ("vfmacc_vv", ("v10", "v8", "v9"), {}))


def _fixed_looped_case(body=_LOOP_BODY, trips=40, passes=8, avl=16):
    """One looped case built the way :func:`looped_cases` builds them."""
    gen = ProgramGen(7, size=1)
    pre = gen._preamble()
    loop = [("li", ("x1", avl), {}),
            ("vsetvli", ("x2", "x1"), {"sew": 64, "lmul": 1}),
            ("li", ("x29", passes), {}), ("label", ("outer",), {}),
            ("li", ("x28", trips), {}), ("label", ("inner",), {}),
            *body,
            ("addi", ("x28", "x28", -1), {}), ("bnez", ("x28", "inner"), {}),
            ("addi", ("x29", "x29", -1), {}), ("bnez", ("x29", "outer"), {})]
    return case_from_chunks(generate_case(7, size=1),
                            (pre, ("op", tuple(loop)), gen._epilogue()))


# ----------------------------------------------------------------------
# Steady-state fast-forward: on == off == reference, to the bit.
# ----------------------------------------------------------------------
def _bits(report) -> dict:
    """The fields of ``report``, every float as ``float.hex``."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return {name: ({k: exact(v) for k, v in value.items()}
                   if isinstance(value, dict) else exact(value))
            for name, value in dataclasses.asdict(report).items()}


def _on_off_reference(trace, config) -> list:
    """:func:`_bits` of ``trace`` replayed on ``config`` with
    fast-forward on, with it off, and by the reference loop; each
    replay compiles a fresh plan, so no report memo is shared."""
    engine = TimingEngine(build_model(config))
    views = []
    for on in (True, False):
        trace._plan = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(superblock, "FAST_FORWARD", on)
            views.append(_bits(engine.replay(trace)))
    views.append(_bits(engine.replay_reference(trace)))
    return views


@pytest.fixture
def jumps(monkeypatch) -> list:
    """``(t, (n, h, delta, s0, s1))`` of every jump made by the body
    functions compiled in the test, ``t`` the scalar clock it left."""
    made = []
    real = superblock._probe

    def probe(snapshots, *args):
        found = real(snapshots, *args)
        if found.__class__ is tuple:
            made.append((snapshots[-1][0][0], found))
        return found

    monkeypatch.setattr(superblock, "_probe", probe)
    monkeypatch.setattr(superblock, "_FUNCTIONS", {})
    return made


class TestTranslation:
    A = (1000.0, 1001.5, 0.0, 1010.25)

    def test_a_common_move_is_a_shift(self):
        assert superblock._shift(self.A, (1008.0, 1009.5, 0.0,
                                          1018.25)) == 8.0

    @pytest.mark.parametrize("b", [
        (1008.0, 1009.5, 8.0, 1018.25),   # a never-written 0.0 moved
        (1008.0, 1009.5, 0.0, 1018.5),    # one time moved further
        (1000.0, 1001.5, 0.0, 1010.25),   # no move
    ])
    def test_other_moves_are_not(self, b):
        assert superblock._shift(self.A, b) is None

    def test_room_ends_below_the_binade_top(self):
        n, m = superblock._room((600.0, 610.0), (601.0, 611.0), 1.0, 1.0)
        assert 611.0 + n < 1024.0 <= 611.0 + n + 1
        assert 600.0 + (m - 1) <= 1024.0 < 600.0 + m

    def test_a_window_across_the_binade_top_has_none(self):
        n, _ = superblock._room(self.A, (1008.0, 1009.5, 0.0, 1030.25),
                                8.0, 8.0)
        assert n < 0

    def test_moves_are_even_multiples_of_the_spacing(self):
        """In ``[1024, 2048)`` the spacing is ``u = 2^-42``.  A move by
        an odd multiple of ``u`` would flip which neighbour a tie rounds
        to (ties go to the even one), so it leaves no room."""
        u = 2.0 ** -42
        assert 1025.0 + 2 ** -43 == 1025.0  # a tie, rounded to even
        assert (1025.0 + u) + 2 ** -43 == 1025.0 + 2 * u  # not + u
        a = (1025.0, 1030.0)
        for move, room in ((u, False), (2 * u, True)):
            c = (1025.0 + move, 1030.0 + move)
            assert bool(superblock._room(a, c, move, move)) == room
            assert bool(superblock._room(a, c, 2 * u, move)) == room


class _Repeating:
    """A cost-repetition source under which every cost repeats."""

    def cost_periods(self, k, p):
        return 1 << 30

    def cost_repeats(self, k, p, like):
        return 1 << 30


class TestProbe:
    def test_a_translation_jumps_to_the_binade_top(self):
        snapshots = [((1100.0, 1105.0), 10, 0), ((1103.0, 1108.0), 14, 1)]
        n, h, delta, terms, ref = superblock._probe(
            snapshots, [0.5], _Repeating(), 4, 1000, 8, None)
        assert (h, delta, terms) == (1, 3.0, [0.5])
        assert 1108.0 + n * 3.0 < 2048.0 <= 1108.0 + (n + 1) * 3.0
        # The last skipped hyper-period, starting n - 1 moves on.
        move = (n - 1) * 3.0
        assert ref == ((1103.0 + move, 1108.0 + move), 14 + (n - 1) * 4,
                       1, 3.0, [0.5])

    def test_the_last_jump_carries_a_moved_state(self):
        """No snapshot pair translates, but the state is the last
        jump's hyper-period moved within its binade."""
        ref = ((1100.0, 1105.0), 10, 1, 3.0, (0.5,))
        n, h, delta, terms, _ = superblock._probe(
            [((1200.0, 1205.0), 40, 0)], [], _Repeating(), 4, 1000, 8, ref)
        assert (h, delta, terms) == (1, 3.0, (0.5,))
        assert 1205.0 + n * 3.0 < 2048.0 <= 1205.0 + (n + 1) * 3.0

    def test_a_moved_state_in_another_binade_does_not(self):
        ref = ((1000.0, 1005.0), 10, 1, 3.0, (0.5,))
        assert superblock._probe([((1100.0, 1105.0), 40, 0)], [],
                                 _Repeating(), 4, 1000, 8, ref) is None


class TestFastForward:
    def test_jumps_on_both_sides_of_a_binade_crossing(self, jumps):
        """One long inner loop: the clocks cross several binades inside
        the block, and jumps land in more than one of them."""
        trace = _capture(_fixed_looped_case(trips=1500, passes=1))
        plan = ReplayPlan.from_trace(trace)
        assert [reps for _, _, reps in plan.superblocks] == [1500]
        on, off, reference = _on_off_reference(trace,
                                               get_machine("8L-Ara2"))
        assert on == off == reference
        assert len({frexp(t)[1] for t, _ in jumps}) > 1
        skipped = sum(n * h for _, (n, h, *_) in jumps)
        assert skipped > 1500 // 2

    def test_costs_that_do_not_repeat_refuse_every_jump(self, jumps,
                                                         monkeypatch):
        """A scalar load walks memory 40 bytes a trip, so D$ misses fall
        every 8 trips at uneven gaps: states translate, but over no
        hyper-period of 1, 2 or 4 trips do the costs repeat long
        enough for a jump."""
        asked = []
        periods = _MachineRows.cost_periods

        def cost_periods(self, k, p):
            asked.append(periods(self, k, p))
            return asked[-1]

        monkeypatch.setattr(_MachineRows, "cost_periods", cost_periods)
        body = (("fld", ("f1", "x5", 0), {}),
                ("addi", ("x5", "x5", 40), {}),
                ("vfmacc_vv", ("v10", "v8", "v9"), {}),
                ("vfadd_vv", ("v12", "v10", "v9"), {}))
        trace = _capture(_fixed_looped_case(body, trips=300, passes=1,
                                            avl=128))
        assert [reps for _, _, reps in
                ReplayPlan.from_trace(trace).superblocks] == [300]
        on, off, reference = _on_off_reference(trace,
                                               get_machine("8L-Ara2"))
        assert on == off == reference
        assert asked and not jumps

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_captures_on_every_machine(self, name, jumps):
        trace = PINNED[name][0]().trace
        for machine in list_machines():
            config = get_machine(machine)
            for depth in (1, 2, config.unit_queue_depth):
                config = dataclasses.replace(config, unit_queue_depth=depth)
                on, off, reference = _on_off_reference(trace, config)
                assert on == off == reference, (machine, depth)
        probed = any(reps >= superblock.MIN_PROBE_REPS for _, _, reps in
                     ReplayPlan.from_trace(trace).superblocks)
        assert bool(jumps) == probed

    def test_sums_are_added_term_by_term(self, jumps):
        """Load busy cycles of 16 / 3 and the issue stalls behind them
        are not dyadic, so ``B + n * d`` is not what ``n`` additions of
        ``d`` give: a jump must add the skipped rows' terms one by
        one."""
        a = Assembler("non_dyadic")
        vle = a.vle64_v("v8", "x5")
        vfmacc = a.vfmacc_vv("v12", "v8", "v10")
        a.halt()
        program = a.build()
        events = [VsetvlEvent(16, 64, 1)]
        for i in range(3000):
            events += [ScalarEvent("alu"),
                       VectorEvent(vle, 16, 64, 1, MemAccess(
                           base=0x2000 + 128 * (i % 8), stride=8,
                           count=16, ew_bytes=8, pattern=MemPattern.UNIT,
                           is_store=False)),
                       VectorEvent(vfmacc, 16, 64, 1)]
        trace = build_trace(program, events)
        config = dataclasses.replace(
            get_machine("8L-Ara2"), unit_queue_depth=2,
            memory=dataclasses.replace(get_machine("8L-Ara2").memory,
                                       read_bytes_per_cycle_per_lane=3.0))
        on, off, reference = _on_off_reference(trace, config)
        assert on == off == reference
        skipped = sum(n * h for _, (n, h, *_) in jumps)
        assert skipped > 2000
        for value in (on["unit_busy"]["vlsu_load"],
                      on["issue_stall_cycles"]):
            assert Fraction(float.fromhex(value)).denominator > 2 ** 30
        busy = 16 / 3  # 8 lanes x 3 B/cycle over 8-byte elements
        total = 0.0
        for _ in range(skipped):
            total += busy
        assert total != skipped * busy


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


# ----------------------------------------------------------------------
# Stored code: compiled once per store, loaded per process.
# ----------------------------------------------------------------------
_KEY = ("superblock-code", 8192, "case")
_PAPER_CONFIG = get_machine("8L-Ara2")
_SAME_VLEN = [m for m in sorted(list_machines())
              if get_machine(m).lanes == _PAPER_CONFIG.lanes]


def _paper_capture(name: str):
    return ZOO[name](_PAPER_CONFIG, 64).capture(_PAPER_CONFIG, verify=False)


def _stored_section(tmp_path, captured) -> dict:
    """The plan section a disk cache writes for ``captured``."""
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    plan = pickle.loads(disk_path(tmp_path, _KEY).read_bytes())["plan"]
    digest = compiler_digest()
    assert plan.startswith(digest)
    return pickle.loads(zlib.decompress(plan[len(digest):]))


class TestStoredCode:
    @pytest.mark.parametrize("name", ["fconv2d", "fmatmul", "jacobi2d"])
    def test_stored_code_is_a_fresh_compile(self, tmp_path, monkeypatch,
                                            name):
        """Code objects, not marshal bytes, are compared: marshal output
        depends on reference counts."""
        monkeypatch.setattr(superblock, "_FUNCTIONS", {})
        section = _stored_section(tmp_path, _paper_capture(name))
        assert len(section["code"]) == len(section["bodies"]) > 0
        stored = [marshal.loads(zlib.decompress(code))
                  for code in section["code"]]
        for (structure, _, _), code in zip(section["bodies"], stored):
            assert code == compile(superblock._source(structure),
                                   "<superblock>", "exec")
        if name == "fmatmul":
            assert compile(GOLDEN_FMATMUL.read_text(), "<superblock>",
                           "exec") in stored

    @pytest.mark.parametrize("name", ["fconv2d", "fmatmul", "jacobi2d"])
    def test_warm_read_replays_without_codegen(self, tmp_path, monkeypatch,
                                               name):
        """With no function in the process and code generation made to
        raise, a warm read replays from the stored code, to the bit."""
        captured = _paper_capture(name)
        engines = [TimingEngine(build_model(get_machine(m)))
                   for m in _SAME_VLEN]
        want = [_bits(engine.replay(captured.trace)) for engine in engines]
        TraceCache(disk_dir=tmp_path).put(_KEY, captured)

        def codegen(*args):
            raise AssertionError("a warm read generated a superblock body")

        monkeypatch.setattr(superblock, "_FUNCTIONS", {})
        monkeypatch.setattr(superblock, "_source", codegen)
        monkeypatch.setattr(superblock, "compile", codegen, raising=False)
        reader = TraceCache(disk_dir=tmp_path)
        entry = reader.get(_KEY)
        engines = [TimingEngine(build_model(get_machine(m)))
                   for m in _SAME_VLEN]
        assert [_bits(engine.replay(entry.trace))
                for engine in engines] == want
        stats = reader.stats
        assert (stats["plan_loads"], stats["code_loads"]) == \
            (1, len(superblock._FUNCTIONS))
        assert stats["code_loads"] > 0
        assert entry.trace._plan._code is None  # let go once loaded
