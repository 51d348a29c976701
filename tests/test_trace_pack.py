"""Property tests for the v6 columnar trace packing.

Two families of guarantees:

* **Round-trip** — randomized traces spanning every event kind (plus
  the deliberate edge cases: empty traces, max-``vl``, mixed LMUL,
  scalar-only streams, and events that must take the pickled-fallback
  path) unpack to an event stream with identical contents and
  aggregate counters.
* **Replay identity** — replaying the packed form of a real captured
  trace produces a byte-identical ``TimingReport`` to replaying the
  object form, on every machine in the registry, for both the
  vectorized and the reference replay loops.
* **Columns-native plans** — the plan compiled from a ``DynamicTrace``
  equals, field for field, the plan compiled from its ``PackedTrace``;
  compiling the packed form never materializes event objects; and the
  first-event byte accounting of the decode memo survives both the
  column path and the fallback path.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.functional.trace import (DynamicTrace, MemAccess, ScalarEvent,
                                    VectorEvent, VsetvlEvent)
from repro.functional.trace_pack import (MAGIC, PackedTrace, pack_trace,
                                         unpack_trace)
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.isa import Assembler
from repro.isa.instructions import MemPattern
from repro.kernels import ZOO, build_fmatmul
from repro.machine.registry import get_machine, list_machines
from repro.params import Ara2Config
from repro.sim.simulator import build_model
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan

_I64_MAX = (1 << 63) - 1


class OddballEvent:
    """A foreign event class: must survive via the fallback map."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, OddballEvent) and self.tag == other.tag


@pytest.fixture(scope="module")
def capture():
    cfg = Ara2Config(lanes=4)
    run = build_fmatmul(cfg, 64, m=8, k=16)
    return run.capture(cfg, verify=False)


def _events_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, ScalarEvent):
        return (a.kind, a.addr, a.nbytes) == (b.kind, b.addr, b.nbytes)
    if isinstance(a, VsetvlEvent):
        return (a.vl, a.sew, a.lmul) == (b.vl, b.sew, b.lmul)
    if isinstance(a, VectorEvent):
        return (a.instr.mnemonic == b.instr.mnemonic
                and (a.vl, a.sew, a.lmul, a.slide_amount)
                == (b.vl, b.sew, b.lmul, b.slide_amount)
                and a.mem == b.mem)
    return a == b


def _assert_round_trip(trace, program):
    blob = pack_trace(trace, program)
    assert blob.startswith(MAGIC)
    packed = unpack_trace(blob, program)
    assert len(packed) == len(trace)
    assert packed.scalar_count == trace.scalar_count
    assert packed.vector_count == trace.vector_count
    assert packed.total_flops == trace.total_flops
    for got, want in zip(packed.events, trace.events):
        assert _events_equal(got, want), (got, want)
    return packed


def _random_trace(rng, program, kinds=("scalar", "vsetvl", "vector",
                                       "fallback")):
    """A randomized trace mixing the requested event kinds, with the
    boundary values (max-vl, None addresses, every LMUL and pattern)
    reachable by the draw."""
    instrs = program.instructions
    vec_instrs = [i for i in instrs if i.mnemonic.startswith("v")]
    trace = DynamicTrace()
    events = trace.events
    n = int(rng.integers(0, 60))
    for _ in range(n):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "scalar":
            addr = (None, 0, 64, int(rng.integers(0, 1 << 40)),
                    _I64_MAX)[int(rng.integers(0, 5))]
            events.append(ScalarEvent(
                ("alu", "mul", "fp", "load", "store",
                 "branch_taken")[int(rng.integers(0, 6))],
                addr, int(rng.integers(0, 65))))
            trace.scalar_count += 1
        elif kind == "vsetvl":
            vl = (0, 1, int(rng.integers(0, 1 << 16)),
                  _I64_MAX)[int(rng.integers(0, 4))]  # max-vl boundary
            events.append(VsetvlEvent(
                vl, (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))]))  # mixed LMUL
            trace.scalar_count += 1
        elif kind == "vector":
            instr = vec_instrs[int(rng.integers(0, len(vec_instrs)))]
            mem = None
            if rng.random() < 0.5:
                pattern = (MemPattern.UNIT, MemPattern.STRIDED,
                           MemPattern.INDEXED,
                           MemPattern.MASK)[int(rng.integers(0, 4))]
                mem = MemAccess(base=int(rng.integers(0, 1 << 32)),
                                stride=int(rng.integers(-64, 65)),
                                count=int(rng.integers(0, 1 << 20)),
                                ew_bytes=(1, 2, 4, 8)[
                                    int(rng.integers(0, 4))],
                                pattern=pattern,
                                is_store=bool(rng.integers(0, 2)))
            events.append(VectorEvent(
                instr, int(rng.integers(0, 1 << 20)),
                (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))], mem,
                int(rng.integers(-8, 9))))
            trace.vector_count += 1
            trace.total_flops += float(rng.integers(0, 1000))
        else:
            events.append(OddballEvent(int(rng.integers(0, 1000))))
    return trace


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_empty_trace(self, capture):
        packed = _assert_round_trip(DynamicTrace(), capture.program)
        assert len(packed) == 0
        assert packed.events == []

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mixed_streams(self, capture, seed):
        rng = np.random.default_rng(seed)
        trace = _random_trace(rng, capture.program)
        _assert_round_trip(trace, capture.program)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_only_streams(self, capture, seed):
        rng = np.random.default_rng(100 + seed)
        trace = _random_trace(rng, capture.program, kinds=("scalar",))
        assert trace.vector_count == 0
        _assert_round_trip(trace, capture.program)

    def test_real_capture_round_trips(self, capture):
        _assert_round_trip(capture.trace, capture.program)

    def test_vector_events_relink_to_program_instructions(self, capture):
        packed = _assert_round_trip(capture.trace, capture.program)
        for got, want in zip(packed.events, capture.trace.events):
            if isinstance(want, VectorEvent):
                assert got.instr is want.instr  # identity, not a copy

    def test_out_of_range_fields_take_the_fallback_path(self, capture):
        trace = DynamicTrace()
        # vl beyond i64, negative address, foreign instruction: none of
        # these fit a column, all must survive the pickled fallback.
        trace.events.append(VsetvlEvent(1 << 64, 8, 1))
        trace.events.append(ScalarEvent("load", -4, 8))
        trace.events.append(OddballEvent("x"))
        trace.scalar_count = 2
        blob = pack_trace(trace, capture.program)
        packed = unpack_trace(blob, capture.program)
        assert isinstance(packed.events[0], VsetvlEvent)
        assert packed.events[0].vl == 1 << 64
        assert packed.events[1].addr == -4
        assert packed.events[2] == OddballEvent("x")

    def test_packed_trace_pickles_by_blob(self, capture):
        packed = unpack_trace(pack_trace(capture.trace, capture.program),
                              capture.program)
        clone = pickle.loads(pickle.dumps(packed))
        assert isinstance(clone, PackedTrace)
        assert bytes(clone.blob) == bytes(packed.blob)
        assert len(clone) == len(packed)
        for got, want in zip(clone.events, packed.events):
            assert _events_equal(got, want)

    def test_malformed_blobs_raise_value_error(self, capture):
        good = pack_trace(capture.trace, capture.program)
        with pytest.raises(ValueError):
            unpack_trace(b"nope" + good[4:], capture.program)
        with pytest.raises(ValueError):
            unpack_trace(good[:20], capture.program)

    def test_to_trace_rebuilds_equal_dynamic_trace(self, capture):
        packed = unpack_trace(pack_trace(capture.trace, capture.program),
                              capture.program)
        rebuilt = packed.to_trace()
        assert isinstance(rebuilt, DynamicTrace)
        assert len(rebuilt) == len(capture.trace)
        assert rebuilt.scalar_count == capture.trace.scalar_count
        assert rebuilt.total_flops == capture.trace.total_flops


# ----------------------------------------------------------------------
# Replay identity: packed vs object form, every registry machine
# ----------------------------------------------------------------------
class TestReplayIdentity:
    @pytest.mark.parametrize("machine", sorted(list_machines()))
    def test_packed_replay_matches_object_replay(self, machine):
        cfg = get_machine(machine)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, verify=False)
        packed = unpack_trace(
            pack_trace(captured.trace, captured.program), captured.program)
        model = build_model(cfg)
        reference = TimingEngine(model).replay_reference(captured.trace)
        fast_obj = TimingEngine(model).replay(captured.trace)
        fast_packed = TimingEngine(model).replay(packed)
        assert fast_obj == reference
        assert fast_packed == reference


# ----------------------------------------------------------------------
# Columns-native plan compilation
# ----------------------------------------------------------------------
_MACHINES = sorted(list_machines())


def _assert_plans_equal(a: ReplayPlan, b: ReplayPlan) -> None:
    for name in ReplayPlan.__slots__:
        if name in ("_cost_memo", "_machine_memo"):
            continue
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), name
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert type(x) is type(y) and x == y, name


def _assert_plan_identity(trace, program) -> None:
    """Object and packed plans agree; both replay like the reference on
    every registry machine; the packed form is never materialized."""
    packed = unpack_trace(pack_trace(trace, program), program)
    _assert_plans_equal(ReplayPlan.from_trace(trace),
                        ReplayPlan.from_trace(packed))
    for machine in _MACHINES:
        engine = TimingEngine(build_model(get_machine(machine)))
        reference = engine.replay_reference(trace)
        assert engine.replay(trace) == reference, machine
        assert engine.replay(packed) == reference, machine
    assert packed._events is None


class TestColumnsNativePlan:
    def test_fmatmul_capture(self, capture):
        _assert_plan_identity(capture.trace, capture.program)

    @pytest.mark.parametrize("kernel", sorted(ZOO))
    def test_zoo_kernel(self, kernel):
        cfg = Ara2Config(lanes=4)
        captured = ZOO[kernel](cfg, 64).capture(cfg, verify=False)
        _assert_plan_identity(captured.trace, captured.program)

    def test_fuzz_seed(self, fuzz_seed):
        config = get_machine("8L-Ara2")
        case = generate_case(fuzz_seed, size=40)
        captured = kernel_for_case(case, config).capture(config,
                                                          verify=False)
        _assert_plan_identity(captured.trace, case.program)


class TestMachineRows:
    """The per-machine step builds one table entry per row class, never
    a per-row machine column."""

    def test_bundle_holds_one_entry_per_class(self, capture):
        plan = ReplayPlan.from_trace(capture.trace)
        bundle = plan.machine_rows(build_model(get_machine("8L-AraXL")))
        n_rows = len(plan.row_class)
        assert len(plan.seg_end) == n_rows
        assert len(bundle.seg_costs) == plan.scalar_kind.size
        assert len(bundle.table) == len(plan.classes) == \
            max(plan.row_class) + 1
        assert len(bundle.table) < n_rows
        # Static class fields lead each entry, machine fields follow.
        assert plan.classes[0] == ()  # the vsetvl class
        for static, entry in zip(plan.classes, bundle.table):
            assert entry[:len(static)] == static
            assert len(entry) == len(static) + 5
        # No list on the bundle runs parallel to the issue rows.
        for name in type(bundle).__slots__:
            value = getattr(bundle, name)
            if isinstance(value, list) and name != "seg_costs":
                assert len(value) == len(plan.classes), name

    def test_second_replay_is_equal_but_distinct(self, capture):
        trace = unpack_trace(pack_trace(capture.trace, capture.program),
                             capture.program)
        model = build_model(get_machine("16L-AraXL"))
        engine = TimingEngine(model)
        first = engine.replay(trace)
        bundle = trace._plan.machine_rows(model)
        assert bundle.report == first
        # The finished report is memoized; the table is let go.
        assert bundle.seg_costs is None and bundle.table is None
        second = engine.replay(trace)
        assert second == first and second is not first
        assert second.unit_busy is not first.unit_busy
        assert first == engine.replay_reference(capture.trace)


def _mask_program():
    """A program with mask load/store and one FP add; fresh instruction
    objects, so their decode memos start empty."""
    a = Assembler("mask_bytes")
    vlm = a.vlm_v("v1", "x5")
    vsm = a.vsm_v("v1", "x6")
    vfadd = a.vfadd_vv("v2", "v3", "v3")
    a.halt()
    return a.build(), vlm, vsm, vfadd


def _mask(base, count, is_store=False):
    return MemAccess(base=base, stride=1, count=count, ew_bytes=1,
                     pattern=MemPattern.MASK, is_store=is_store)


def _replay_all_forms(trace, program, machine):
    """``[(reference, fast), ...]`` for the object and the packed form.

    Each form is held against its own reference: a fallback vector
    event is pickled whole, so the packed form links it to an
    unpickled copy of its instruction, whose decode memo (and hence
    first-event byte accounting) is its own.
    """
    blob = pack_trace(trace, program)
    engine = TimingEngine(build_model(get_machine(machine)))
    reference = engine.replay_reference(trace)
    pairs = [(reference, engine.replay(trace))]
    packed = unpack_trace(blob, program)
    pairs.append((engine.replay_reference(unpack_trace(blob, program)),
                  engine.replay(packed)))
    assert packed._events is None
    return pairs


class TestFirstEventByteAccounting:
    @pytest.mark.parametrize("machine", _MACHINES)
    def test_mask_counts_vary_within_one_decode_group(self, machine):
        program, vlm, vsm, _ = _mask_program()
        trace = DynamicTrace()
        trace.add_vsetvl(VsetvlEvent(64, 64, 1))
        for base, count in ((0x1000, 5), (0x1040, 9), (0x1081, 2)):
            trace.add_scalar(ScalarEvent("load", base, 8))
            trace.add_vector(VectorEvent(vlm, 64, 64, 1,
                                         _mask(base, count)))
        for base, count in ((0x2000, 3), (0x2040, 7)):
            trace.add_vector(VectorEvent(vsm, 64, 64, 1,
                                         _mask(base, count, True)))
        pairs = _replay_all_forms(trace, program, machine)
        # The decode memo keeps the first event's bytes for its group.
        assert pairs[0][0].mem_bytes_read == 3 * 5.0
        assert pairs[0][0].mem_bytes_written == 2 * 3.0
        for reference, got in pairs:
            assert got.mem_bytes_read == reference.mem_bytes_read
            assert got.mem_bytes_written == reference.mem_bytes_written
            assert got.cycles == reference.cycles
            assert got == reference

    @pytest.mark.parametrize("machine", _MACHINES)
    def test_fallback_events_replay_like_the_reference(self, machine):
        program, vlm, _, vfadd = _mask_program()
        trace = DynamicTrace()
        trace.add_vsetvl(VsetvlEvent(8, 64, 1))
        trace.add_vector(VectorEvent(vlm, 8, 64, 1, _mask(0x1000, 5)))
        trace.add_scalar(ScalarEvent("load", -4, 8))  # negative address
        trace.add_vector(VectorEvent(vlm, 8, 64, 1, _mask(0x1040, 9)))
        trace.add_vsetvl(VsetvlEvent(1 << 64, 64, 1))  # vl beyond i64
        trace.add_vector(VectorEvent(vfadd, 1 << 64, 64, 1))
        # Same decode group as the first vlm, count beyond i64.
        trace.add_vector(VectorEvent(vlm, 8, 64, 1,
                                     _mask(0x1081, 1 << 64)))
        trace.add_scalar(ScalarEvent("store", 0x1000, 8))
        packed = unpack_trace(pack_trace(trace, program), program)
        assert len(packed.fallback) == 4
        pairs = _replay_all_forms(trace, program, machine)
        assert pairs[0][0].mem_bytes_read == 3 * 5.0
        for reference, got in pairs:
            assert got.mem_bytes_read == reference.mem_bytes_read
            assert got.mem_bytes_written == reference.mem_bytes_written
            assert got.cycles == reference.cycles
            assert got == reference

    def test_memory_row_without_access_raises(self):
        from repro.errors import TimingError

        program, vlm, _, _ = _mask_program()
        trace = DynamicTrace()
        trace.add_vector(VectorEvent(vlm, 8, 64, 1, None))
        packed = unpack_trace(pack_trace(trace, program), program)
        for form in (trace, packed):
            with pytest.raises(TimingError, match="lacks a MemAccess"):
                ReplayPlan.from_trace(form)


def test_entry_memo_without_its_decode_memo_is_a_miss():
    """An instruction holding a table-entry memo but not the decode memo
    it was checked against — as unpickling can leave it — compiles by
    decoding afresh instead of raising."""
    program, _, _, vfadd = _mask_program()
    trace = DynamicTrace()
    trace.add_vsetvl(VsetvlEvent(8, 64, 1))
    trace.add_vector(VectorEvent(vfadd, 8, 64, 1))
    blob = pack_trace(trace, program)
    first = ReplayPlan.from_trace(unpack_trace(blob, program))
    del vfadd.__dict__["_tinfo_by_cfg"]
    assert vfadd.__dict__["_tentry_by_cfg"]
    _assert_plans_equal(ReplayPlan.from_trace(unpack_trace(blob, program)),
                        first)
