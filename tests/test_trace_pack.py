"""Property tests for the columnar trace layout.

Three families of guarantees:

* **Round-trip** — randomized traces spanning every event kind (plus
  the deliberate edge cases: empty traces, max-``vl``, mixed LMUL,
  scalar-only streams, vector memory bases across the whole unsigned
  64-bit range with negative strides) built on the executor's column
  buffers unpack from their blob to an event stream with identical
  contents and aggregate counters.
* **Replay identity** — replaying the blob form of a real captured
  trace produces a byte-identical ``TimingReport`` to replaying the
  capture and to the reference loop over its event objects, on every
  machine in the registry.
* **Columns-native plans** — the plan compiled from a capture equals,
  field for field, the plan compiled from its blob; compiling never
  materializes event objects; and the first-event byte accounting of
  the decode memo survives the column path.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.functional.trace import (MemAccess, ScalarEvent, VectorEvent,
                                    VsetvlEvent)
from repro.functional.trace_pack import MAGIC, PackedTrace, unpack_trace
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.fuzz.properties import DEFAULT_MACHINES
from repro.isa import Assembler
from repro.isa.instructions import MemPattern
from repro.kernels import ZOO, build_fmatmul
from repro.machine.registry import get_machine, list_machines
from repro.params import Ara2Config
from repro.sim.simulator import build_model
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan
from tests.trace_builder import build_trace

_I64_MAX = (1 << 63) - 1


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
    return (a.instr.mnemonic == b.instr.mnemonic
            and (a.vl, a.sew, a.lmul, a.slide_amount)
            == (b.vl, b.sew, b.lmul, b.slide_amount)
            and a.mem == b.mem)


def _assert_round_trip(events, program) -> PackedTrace:
    """Build ``events`` into columns, unpack the blob, and hold its
    materialized events and counters against the input."""
    built = build_trace(program, events)
    blob = built.blob
    assert blob.startswith(MAGIC)
    packed = unpack_trace(blob, program)
    assert len(packed) == len(events)
    assert packed.vector_count == built.vector_count == sum(
        type(e) is VectorEvent for e in events)
    assert packed.scalar_count == len(events) - packed.vector_count
    assert packed.total_flops == built.total_flops
    for got, want in zip(packed.events, events):
        assert _events_equal(got, want), (got, want)
    return packed


def _random_events(rng, program, kinds=("scalar", "vsetvl", "vector")):
    """A randomized event list mixing the requested kinds, with the
    boundary values (max-vl, None addresses, every LMUL and pattern,
    unsigned 64-bit bases) reachable by the draw."""
    vec_instrs = [i for i in program.instructions
                  if i.mnemonic.startswith("v")]
    events = []
    for _ in range(int(rng.integers(0, 60))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "scalar":
            addr = (None, 0, 64, int(rng.integers(0, 1 << 40)),
                    _I64_MAX)[int(rng.integers(0, 5))]
            events.append(ScalarEvent(
                ("alu", "mul", "fp", "load", "store",
                 "branch_taken")[int(rng.integers(0, 6))],
                addr, 0 if addr is None else int(rng.integers(0, 65))))
        elif kind == "vsetvl":
            vl = (0, 1, int(rng.integers(0, 1 << 16)),
                  _I64_MAX)[int(rng.integers(0, 4))]  # max-vl boundary
            events.append(VsetvlEvent(
                vl, (8, 16, 32, 64)[int(rng.integers(0, 4))],
                (1, 2, 4, 8)[int(rng.integers(0, 4))]))  # mixed LMUL
        else:
            instr = vec_instrs[int(rng.integers(0, len(vec_instrs)))]
            mem = None
            if rng.random() < 0.5:
                pattern = (MemPattern.UNIT, MemPattern.STRIDED,
                           MemPattern.INDEXED,
                           MemPattern.MASK)[int(rng.integers(0, 4))]
                base = (int(rng.integers(0, 1 << 32)), 1 << 63,
                        (1 << 64) - 8)[int(rng.integers(0, 3))]
                mem = MemAccess(base=base,
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
    return events


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_empty_trace(self, capture):
        packed = _assert_round_trip([], capture.program)
        assert len(packed) == 0
        assert packed.events == []

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mixed_streams(self, capture, seed):
        rng = np.random.default_rng(seed)
        _assert_round_trip(_random_events(rng, capture.program),
                           capture.program)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_only_streams(self, capture, seed):
        rng = np.random.default_rng(100 + seed)
        events = _random_events(rng, capture.program, kinds=("scalar",))
        assert _assert_round_trip(events, capture.program).vector_count == 0

    def test_real_capture_round_trips(self, capture):
        packed = _assert_round_trip(capture.trace.events, capture.program)
        assert packed.total_flops == capture.trace.total_flops

    def test_vector_events_relink_to_program_instructions(self, capture):
        packed = _assert_round_trip(capture.trace.events, capture.program)
        for got, want in zip(packed.events, capture.trace.events):
            if isinstance(want, VectorEvent):
                assert got.instr is want.instr  # identity, not a copy

    def test_packed_trace_pickles_by_blob(self, capture):
        packed = unpack_trace(capture.trace.blob, capture.program)
        clone = pickle.loads(pickle.dumps(packed))
        assert isinstance(clone, PackedTrace)
        assert bytes(clone.blob) == bytes(packed.blob)
        assert len(clone) == len(packed)
        for got, want in zip(clone.events, packed.events):
            assert _events_equal(got, want)

    def test_malformed_blobs_raise_value_error(self, capture):
        good = capture.trace.blob
        with pytest.raises(ValueError):
            unpack_trace(b"nope" + good[4:], capture.program)
        with pytest.raises(ValueError):
            unpack_trace(good[:20], capture.program)


def _u64_base_trace():
    """Unit-stride and strided loads and stores at the unsigned 64-bit
    edges of the base range, the strided ones with negative strides."""
    a = Assembler("u64_bases")
    vle = a.vle64_v("v8", "x5")
    vlse = a.vlse64_v("v8", "x5", "x6")
    vsse = a.vsse64_v("v8", "x5", "x6")
    vse = a.vse64_v("v8", "x5")
    a.halt()
    unit, strided = MemPattern.UNIT, MemPattern.STRIDED
    events = [VsetvlEvent(16, 64, 1)]
    for base in (0, _I64_MAX, 1 << 63, (1 << 64) - 8):
        events += [
            ScalarEvent("alu"),
            VectorEvent(vle, 16, 64, 1,
                        MemAccess(base, 8, 16, 8, unit, False)),
            VectorEvent(vlse, 16, 64, 1,
                        MemAccess(base, -8, 16, 8, strided, False)),
            VectorEvent(vsse, 16, 64, 1,
                        MemAccess(base, -4096, 16, 8, strided, True)),
            VectorEvent(vse, 16, 64, 1,
                        MemAccess(base, 8, 16, 8, unit, True))]
    return a.build(), events


class TestUnsignedBase:
    """A vector memory base is any 64-bit register value; the unsigned
    ``m_base`` column holds each one."""

    def test_blob_materializes_the_input(self):
        program, events = _u64_base_trace()
        packed = _assert_round_trip(events, program)
        assert packed.columns["m_base"].dtype == np.uint64
        assert [e.mem.base for e in packed.vector_events()] == [
            e.mem.base for e in events if isinstance(e, VectorEvent)]

    @pytest.mark.parametrize("machine", DEFAULT_MACHINES)
    def test_replay_matches_reference(self, machine):
        program, events = _u64_base_trace()
        packed = unpack_trace(build_trace(program, events).blob, program)
        engine = TimingEngine(build_model(get_machine(machine)))
        assert engine.replay(packed) == engine.replay_reference(events)
        assert packed._events is None


# ----------------------------------------------------------------------
# Replay identity: capture vs blob form, every registry machine
# ----------------------------------------------------------------------
class TestReplayIdentity:
    @pytest.mark.parametrize("machine", sorted(list_machines()))
    def test_packed_replay_matches_object_replay(self, machine):
        """The object replay is the reference loop over event objects."""
        cfg = get_machine(machine)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        captured = run.capture(cfg, verify=False)
        packed = unpack_trace(captured.trace.blob, captured.program)
        model = build_model(cfg)
        reference = TimingEngine(model).replay_reference(
            captured.trace.events)
        assert TimingEngine(model).replay(captured.trace) == reference
        assert TimingEngine(model).replay(packed) == reference


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


def _assert_plan_identity(trace) -> None:
    """Capture and blob plans agree; both replay like the reference on
    every registry machine; the blob form is never materialized."""
    packed = unpack_trace(trace.blob, trace.program)
    _assert_plans_equal(ReplayPlan.from_trace(trace),
                        ReplayPlan.from_trace(packed))
    for machine in _MACHINES:
        engine = TimingEngine(build_model(get_machine(machine)))
        reference = engine.replay_reference(trace.events)
        assert engine.replay(trace) == reference, machine
        assert engine.replay(packed) == reference, machine
    assert packed._events is None


class TestColumnsNativePlan:
    def test_fmatmul_capture(self, capture):
        _assert_plan_identity(capture.trace)

    @pytest.mark.parametrize("kernel", sorted(ZOO))
    def test_zoo_kernel(self, kernel):
        cfg = Ara2Config(lanes=4)
        captured = ZOO[kernel](cfg, 64).capture(cfg, verify=False)
        _assert_plan_identity(captured.trace)

    def test_fuzz_seed(self, fuzz_seed):
        config = get_machine("8L-Ara2")
        case = generate_case(fuzz_seed, size=40)
        captured = kernel_for_case(case, config).capture(config,
                                                          verify=False)
        _assert_plan_identity(captured.trace)


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
        trace = unpack_trace(capture.trace.blob, capture.program)
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
        assert first == engine.replay_reference(capture.trace.events)


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


class TestFirstEventByteAccounting:
    @pytest.mark.parametrize("machine", _MACHINES)
    def test_mask_counts_vary_within_one_decode_group(self, machine):
        program, vlm, vsm, _ = _mask_program()
        events = [VsetvlEvent(64, 64, 1)]
        for base, count in ((0x1000, 5), (0x1040, 9), (0x1081, 2)):
            events.append(ScalarEvent("load", base, 8))
            events.append(VectorEvent(vlm, 64, 64, 1, _mask(base, count)))
        for base, count in ((0x2000, 3), (0x2040, 7)):
            events.append(VectorEvent(vsm, 64, 64, 1,
                                      _mask(base, count, True)))
        built = build_trace(program, events)
        engine = TimingEngine(build_model(get_machine(machine)))
        reference = engine.replay_reference(events)
        # The decode memo keeps the first event's bytes for its group.
        assert reference.mem_bytes_read == 3 * 5.0
        assert reference.mem_bytes_written == 2 * 3.0
        packed = unpack_trace(built.blob, program)
        for got in (engine.replay(built), engine.replay(packed)):
            assert got.mem_bytes_read == reference.mem_bytes_read
            assert got.mem_bytes_written == reference.mem_bytes_written
            assert got.cycles == reference.cycles
            assert got == reference
        assert packed._events is None

    def test_memory_row_without_access_raises(self):
        from repro.errors import TimingError

        program, vlm, _, _ = _mask_program()
        built = build_trace(program, [VectorEvent(vlm, 8, 64, 1, None)])
        for form in (built, unpack_trace(built.blob, program)):
            with pytest.raises(TimingError, match="lacks a MemAccess"):
                ReplayPlan.from_trace(form)


def test_entry_memo_without_its_decode_memo_is_a_miss():
    """An instruction holding a table-entry memo but not the decode memo
    it was checked against — as unpickling can leave it — compiles by
    decoding afresh instead of raising."""
    program, _, _, vfadd = _mask_program()
    blob = build_trace(program, [VsetvlEvent(8, 64, 1),
                                 VectorEvent(vfadd, 8, 64, 1)]).blob
    first = ReplayPlan.from_trace(unpack_trace(blob, program))
    del vfadd.__dict__["_tinfo_by_cfg"]
    assert vfadd.__dict__["_tentry_by_cfg"]
    _assert_plans_equal(ReplayPlan.from_trace(unpack_trace(blob, program)),
                        first)
