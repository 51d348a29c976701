"""Data-free runs: the admission test and error parity with a full run.

``Executor.run(program, data=False)`` runs a program that
``plan.data_free`` admits without computing its data.  It must write
the same trace and raise the same exception at the same point as the
full run.  The point is read off the x registers, which both runs
compute alike: every program here moves an x register between the ops
that may raise.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import (ExecutionError, IllegalInstructionError,
                          MemoryAccessError)
from repro.functional.executor import Executor
from repro.functional.memory import FunctionalMemory
from repro.functional.plan import data_free, plans_for
from repro.functional.state import ArchState
from repro.isa import Assembler, Program
from repro.isa.instructions import FORMAT_ROLES, SPEC_TABLE, MemPattern
from repro.isa.vtype import LMUL, SEW, VType
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.kernels import ZOO, build_fmatmul
from repro.machine import get_machine
from repro.params import Ara2Config
from repro.sim import TraceCache

VLEN = 1024
MEM_BYTES = 1 << 12


def _outcome(program: Program, data: bool, start=None,
             max_instructions: int | None = None):
    """What a run from the state ``start()`` (a fresh one when None)
    shows: the exception class and the x registers when it raised, else
    the trace blob, retired count and halt flag."""
    executor = Executor(VLEN, mem=FunctionalMemory(MEM_BYTES),
                        state=None if start is None else start())
    kwargs = {} if max_instructions is None else {
        "max_instructions": max_instructions}
    try:
        # Zero data may divide by zero; the data is not what is compared.
        with np.errstate(all="ignore"):
            result = executor.run(program, data=data, **kwargs)
    except Exception as exc:  # the class is what is compared
        return type(exc), executor.state.x.snapshot()
    return result.trace.blob, result.retired, result.halted


def _same_outcome(program: Program, **kwargs):
    """Both runs' outcome, asserted equal; returns it."""
    assert data_free(program)
    full = _outcome(program, True, **kwargs)
    assert _outcome(program, False, **kwargs) == full
    return full


def _state_beyond_vlmax() -> ArchState:
    """An e64/m1 state whose vl, set from outside, exceeds VLMAX."""
    state = ArchState(VLEN)
    state.vtype = VType(sew=SEW.E64, lmul=LMUL.M1)
    state.vl = VLEN
    return state


# ----------------------------------------------------------------------
# The admission test
# ----------------------------------------------------------------------
def _program(extra=None) -> Program:
    """A loop of FP, vector and memory work that no x register sees,
    with ``extra(asm)`` emitted inside it."""
    a = Assembler("admission")
    a.li("x1", 8)
    a.li("x10", 64)
    a.li("x11", 16)
    a.li("x3", 2)
    a.label("loop")
    a.vsetvli("x2", "x1", sew=64, lmul=2)
    a.vle64_v("v8", "x10")
    a.vlse64_v("v12", "x10", "x11")
    a.fld("f1", "x10", 8)
    a.fadd_d("f2", "f1", "f1")
    a.vfmacc_vf("v16", "f2", "v8")
    a.vslide1down_vx("v4", "v8", "x1")
    a.vcompress_vm("v20", "v8", "v1")
    a.vfadd_vv("v8", "v8", "v12", masked=True)
    if extra is not None:
        extra(a)
    a.vse64_v("v16", "x10")
    a.fsd("f2", "x10", 0)
    a.addi("x10", "x10", 128)
    a.addi("x3", "x3", -1)
    a.bnez("x3", "loop")
    a.halt()
    return a.build()


#: One op of each kind that lets data decide an x register or whether
#: an access raises.
_DISQUALIFYING = {
    "vluxei64": lambda a: a.vluxei64_v("v8", "x10", "v16"),
    "vsuxei64": lambda a: a.vsuxei64_v("v8", "x10", "v16"),
    "masked vle64": lambda a: a.vle64_v("v8", "x10", masked=True),
    "masked vse64": lambda a: a.vse64_v("v8", "x10", masked=True),
    "masked vlse64": lambda a: a.vlse64_v("v8", "x10", "x11", masked=True),
    "ld": lambda a: a.ld("x5", "x10", 0),
    "lw": lambda a: a.lw("x5", "x10", 0),
    "fmv.x.d": lambda a: a.fmv_x_d("x5", "f1"),
    "fcvt.l.d": lambda a: a.fcvt_l_d("x5", "f1"),
    "feq.d": lambda a: a.feq_d("x5", "f1", "f2"),
    "flt.d": lambda a: a.flt_d("x5", "f1", "f2"),
    "vmv.x.s": lambda a: a.vmv_x_s("x5", "v8"),
    "vcpop.m": lambda a: a.vcpop_m("x5", "v8"),
    "vfirst.m": lambda a: a.vfirst_m("x5", "v8"),
}


class TestAdmission:
    def test_base_program_is_admitted(self):
        assert data_free(_program())

    @pytest.mark.parametrize("op", sorted(_DISQUALIFYING))
    def test_one_disqualifying_op_rejects(self, op):
        assert not data_free(_program(_DISQUALIFYING[op]))

    @pytest.mark.parametrize("name", sorted(set(ZOO) - {"fuzz"}))
    def test_curated_kernels_are_admitted(self, name):
        config = get_machine("8L-AraXL")
        for bytes_per_lane in (64, 512):
            assert data_free(ZOO[name](config, bytes_per_lane).program)

    def test_memo_does_not_survive_a_pickle(self):
        program = _program()
        assert data_free(program)
        assert program.__dict__["_data_free"] is True
        clone = pickle.loads(pickle.dumps(program))
        assert "_data_free" not in clone.__dict__
        # A stale memo would answer for the clone; a fresh one recomputes.
        program.__dict__["_data_free"] = False
        assert data_free(clone)

    def test_rejected_program_cannot_run_without_data(self):
        program = _program(_DISQUALIFYING["ld"])
        with pytest.raises(ExecutionError, match="without data"):
            Executor(VLEN).run(program, data=False)

    def test_admitted_program_writes_the_full_trace(self):
        blob, retired, halted = _same_outcome(_program())
        assert retired > 0 and halted


# ----------------------------------------------------------------------
# Which captures run without data
# ----------------------------------------------------------------------
class TestCaptureChoice:
    @pytest.fixture
    def modes(self, monkeypatch) -> list:
        """The ``data`` argument of every ``Executor.run`` from here on."""
        modes = []
        run = Executor.run

        def recording(self, program, *args, data=True, **kwargs):
            modes.append(data)
            return run(self, program, *args, data=data, **kwargs)

        monkeypatch.setattr(Executor, "run", recording)
        return modes

    def test_only_an_unverified_cached_capture_skips_data(self, modes):
        cfg = Ara2Config(lanes=4)
        run = build_fmatmul(cfg, 64, m=8, k=16)
        setups = []
        run = dataclasses.replace(
            run, setup=lambda sim, setup=run.setup: setups.append(1)
            or setup(sim))
        full = run.capture(cfg)
        run.capture(cfg, cache=TraceCache(), verify=True)
        run.run(cfg)
        free = run.capture(cfg, cache=TraceCache(), verify=False)
        assert modes == [True, True, True, False]
        assert setups == [1, 1, 1]  # no input image for the last
        assert free.trace.blob == full.trace.blob
        assert free.state is None and free.extra == {}

    def test_a_rejected_program_captures_with_data(self, modes):
        cfg = Ara2Config(lanes=4)
        case = generate_case(0)
        assert not data_free(case.program)
        kernel_for_case(case, cfg).capture(cfg, cache=TraceCache(),
                                           verify=False)
        assert modes == [True]


# ----------------------------------------------------------------------
# Memory accesses out of range
# ----------------------------------------------------------------------
def _walk(access, base: int, step: int, stride: int = 8) -> Program:
    """A loop of ``access(asm)`` on the address in x10 (vl 4, stride
    x11), moving it by ``step`` bytes per pass until it raises: x12
    counts the passes begun, x13 those finished."""
    a = Assembler("walk")
    a.li("x1", 4)
    a.vsetvli("x2", "x1", sew=64, lmul=1)
    a.li("x10", base)
    a.li("x11", stride)
    a.li("x3", 4 * MEM_BYTES // abs(step))
    a.label("loop")
    a.addi("x12", "x12", 1)
    access(a)
    a.addi("x13", "x13", 1)
    a.addi("x10", "x10", step)
    a.addi("x3", "x3", -1)
    a.bnez("x3", "loop")
    a.halt()
    return a.build()


_ACCESSES = {
    "vle64": lambda a: a.vle64_v("v8", "x10"),
    "vse64": lambda a: a.vse64_v("v8", "x10"),
    "vlse64": lambda a: a.vlse64_v("v8", "x10", "x11"),
    "vsse64": lambda a: a.vsse64_v("v8", "x10", "x11"),
    "vlm": lambda a: a.vlm_v("v8", "x10"),
    "vsm": lambda a: a.vsm_v("v8", "x10"),
    "fld": lambda a: a.fld("f1", "x10", 8),
    "fsd": lambda a: a.fsd("f1", "x10", 8),
    "flw": lambda a: a.flw("f1", "x10", 0),
    "sd": lambda a: a.sd("x1", "x10", 0),
}


class TestMemoryErrors:
    @pytest.mark.parametrize("access", sorted(_ACCESSES))
    @pytest.mark.parametrize("step", [8, 24])
    def test_walk_off_the_end(self, access, step):
        exc, xregs = _same_outcome(_walk(_ACCESSES[access], 0, step))
        assert exc is MemoryAccessError
        assert xregs[12] == xregs[13] + 1 > 1

    @pytest.mark.parametrize("access", sorted(_ACCESSES))
    def test_walk_below_zero(self, access):
        exc, xregs = _same_outcome(
            _walk(_ACCESSES[access], 200, -24, stride=-8))
        assert exc is MemoryAccessError
        assert xregs[12] == xregs[13] + 1 > 1

    @pytest.mark.parametrize("access", ["vlse64", "vsse64"])
    def test_negative_stride_reaches_below_zero(self, access):
        # The last of four elements sits 24 bytes below the base.
        exc, xregs = _same_outcome(
            _walk(_ACCESSES[access], 16, 8, stride=-8))
        assert exc is MemoryAccessError
        assert xregs[12] == 1 and xregs[13] == 0

    @pytest.mark.parametrize("access", ["vle64", "vse64", "vlse64",
                                        "vsse64", "vlm", "fld", "sd"])
    def test_negative_base(self, access):
        a = Assembler("negative")
        a.li("x1", 2)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.li("x10", -64)
        a.li("x11", 8)
        _ACCESSES[access](a)
        a.halt()
        exc, _ = _same_outcome(a.build())
        assert issubclass(exc, ExecutionError)

    @pytest.mark.parametrize("access,raises", [
        ("vle64", True), ("vse64", True), ("vlm", True), ("vsm", True),
        ("vlse64", False), ("vsse64", False)])
    def test_vl_zero_checks_only_a_unit_stride_base(self, access, raises):
        # vl = 0 past the end: a unit-stride (or mask) access still
        # checks its base; a strided one checks nothing.
        a = Assembler("vl0")
        a.vsetvli("x2", "x1", sew=64, lmul=1)  # AVL x1 = 0
        a.li("x10", MEM_BYTES + 8)
        a.li("x11", 8)
        _ACCESSES[access](a)
        a.addi("x5", "x5", 1)
        a.halt()
        outcome = _same_outcome(a.build())
        assert (outcome[0] is MemoryAccessError) == raises

    @pytest.mark.parametrize("access", ["vlse64", "vsse64"])
    def test_vl_zero_strided_base_beyond_int64(self, access):
        # A negative x10 is a base past the int64 range; at vl = 0 a
        # strided access moves no element and checks nothing, as at
        # any other base.
        a = Assembler("vl0")
        a.vsetvli("x2", "x1", sew=64, lmul=1)  # AVL x1 = 0
        a.li("x10", -64)
        a.li("x11", 8)
        _ACCESSES[access](a)
        a.addi("x5", "x5", 1)
        a.halt()
        blob, _retired, halted = _same_outcome(a.build())
        assert isinstance(blob, bytes) and halted  # ran to the halt

    def test_first_fault_in_a_block_wins(self):
        # An out-of-range fld before an illegal register group in one
        # block raises the memory error; swapped, the illegal op wins.
        for fld_first in (True, False):
            a = Assembler("order")
            a.li("x1", 4)
            a.vsetvli("x2", "x1", sew=64, lmul=2)
            a.li("x10", MEM_BYTES)
            if fld_first:
                a.fld("f1", "x10", 0)
            a.addi("x5", "x5", 1)
            a.vfadd_vv("v3", "v4", "v6")  # v3: not an LMUL-2 group
            a.addi("x5", "x5", 1)
            if not fld_first:
                a.fld("f1", "x10", 0)
            a.halt()
            exc, xregs = _same_outcome(a.build())
            assert exc is (MemoryAccessError if fld_first
                           else IllegalInstructionError)
            assert xregs[5] == (0 if fld_first else 1)


# ----------------------------------------------------------------------
# Instruction cap and vtype
# ----------------------------------------------------------------------
class TestCapAndVtype:
    def test_max_instructions_at_and_below_the_retired_count(self):
        program = _program()
        _, retired, _ = _same_outcome(program)
        assert _same_outcome(program, max_instructions=retired)[1] == retired
        exc, _ = _same_outcome(program, max_instructions=retired - 1)
        assert exc is ExecutionError

    @pytest.mark.parametrize("op", ["vfadd_vv", "vle64_v", "vslideup_vx"])
    def test_vill_start_state(self, op):
        a = Assembler("vill")
        a.li("x10", 64)
        a.addi("x5", "x5", 1)
        {"vfadd_vv": lambda: a.vfadd_vv("v8", "v8", "v8"),
         "vle64_v": lambda: a.vle64_v("v8", "x10"),
         "vslideup_vx": lambda: a.vslideup_vx("v8", "v4", "x10")}[op]()
        a.addi("x5", "x5", 1)
        a.halt()
        program = a.build()
        # A fresh state has vill set; so does one whose vl exceeds VLMAX.
        for start in (None, _state_beyond_vlmax):
            exc, xregs = _same_outcome(program, start=start)
            assert exc is IllegalInstructionError and xregs[5] == 1

    def test_illegal_fp_element_width(self):
        a = Assembler("sew16")
        a.li("x1", 4)
        a.vsetvli("x2", "x1", sew=16, lmul=1)
        a.addi("x5", "x5", 1)
        a.vfmul_vv("v8", "v8", "v8")
        a.halt()
        exc, xregs = _same_outcome(a.build())
        assert exc is IllegalInstructionError and xregs[5] == 1


# ----------------------------------------------------------------------
# Element types and register groups, kind by kind
# ----------------------------------------------------------------------
_ADMITTED_VECTOR = [
    m for m, spec in SPEC_TABLE.items()
    if spec.is_vector and m != "vsetvli"
    and spec.mem_pattern is not MemPattern.INDEXED
    and m not in ("vmv_x_s", "vcpop_m", "vfirst_m")]
_VREG_ROLES = ("vd", "vs1", "vs2", "vs3")
_X_OPERANDS = {"rd": "x5", "rs1": "x10", "rs2": "x11"}
#: Bases that tell group sizes apart: v3 holds one register only, v6 a
#: group of 2 but not 4, v28 of 4 but not 8, v24 of 8 but not 16.
_REGS = (3, 6, 24, 28)


def _op_program(mnemonic: str, sew: int, lmul: int, vregs: dict,
                masked: bool = False) -> Program:
    """``mnemonic`` after a ``vsetvli`` to ``(sew, lmul)`` with vl 5, its
    vector operands from ``vregs`` (v16 where missing), x10 = 64 and
    x11 = 16; x5 counts the ops before and after it."""
    operands = []
    for role in FORMAT_ROLES[SPEC_TABLE[mnemonic].fmt]:
        if role in _VREG_ROLES:
            operands.append(f"v{vregs.get(role, 16)}")
        elif role in _X_OPERANDS:
            operands.append(_X_OPERANDS[role])
        elif role.startswith("fr"):
            operands.append("f1")
        else:
            operands.append(1)
    a = Assembler("legality")
    a.li("x1", 5)
    a.li("x10", 64)
    a.li("x11", 16)
    a.vsetvli("x2", "x1", sew=sew, lmul=lmul)
    a.addi("x5", "x5", 1)
    getattr(a, mnemonic)(*operands, masked=masked)
    a.addi("x5", "x5", 1)
    a.halt()
    return a.build()


def _kind_plan(mnemonic: str):
    return plans_for(_op_program(mnemonic, 64, 1, {}))[5]


def _kind_representatives() -> list:
    """The first mnemonic of each vector kind and format; each memory
    access and conversion stands for itself (their groups follow their
    element widths)."""
    seen = {}
    for m in _ADMITTED_VECTOR:
        p = _kind_plan(m)
        own = p.vkind in ("mem", "fp_cvt")
        seen.setdefault((p.vkind, p.spec.fmt, m if own else None), m)
    return list(seen.values())


class TestRegisterGroups:
    @pytest.mark.parametrize("mnemonic", _ADMITTED_VECTOR)
    def test_element_types_of_every_op(self, mnemonic):
        # FP types exist at SEW 32 and 64, widened ones at SEW 32.
        for sew in (16, 32, 64):
            for lmul in (1, 8):
                _same_outcome(_op_program(mnemonic, sew, lmul, {}))

    @pytest.mark.parametrize("mnemonic", _kind_representatives())
    def test_register_groups_of_every_kind(self, mnemonic):
        roles = [role for role in FORMAT_ROLES[SPEC_TABLE[mnemonic].fmt]
                 if role in _VREG_ROLES]
        variants = [{}] + [{role: reg} for role in roles for reg in _REGS]
        legal = illegal = 0
        for sew in (32, 64):
            for lmul in (2, 4, 8):
                for vregs in variants:
                    outcome = _same_outcome(
                        _op_program(mnemonic, sew, lmul, vregs))
                    if outcome[0] is IllegalInstructionError:
                        illegal += 1
                    else:
                        legal += 1
        # Every kind has legal forms, and illegal ones but for the kinds
        # that view single registers only.
        assert legal
        p = _kind_plan(mnemonic)
        single = p.vkind in ("mask_log", "m_unary", "mv_sx", "fmv_sf",
                             "fmv_fs") or (
            p.vkind == "mem" and p.spec.mem_pattern is MemPattern.MASK)
        assert bool(illegal) != single

    def test_reductions_and_scalar_moves_read_single_registers(self):
        # vs1/vd of a reduction and vd of vmv.s.x hold one element: odd
        # registers are legal there at any LMUL.
        for mnemonic, vregs in (
                ("vfredusum_vs", {"vd": 3, "vs2": 8, "vs1": 5}),
                ("vredsum_vs", {"vd": 3, "vs2": 8, "vs1": 5}),
                ("vmv_s_x", {"vd": 3}),
                ("vfmv_s_f", {"vd": 3}),
                ("vfmv_f_s", {"vs2": 3})):
            blob, _, halted = _same_outcome(
                _op_program(mnemonic, 64, 8, vregs))
            assert halted

    @pytest.mark.parametrize("mnemonic", ["vfadd_vv", "vslide1down_vx",
                                          "vslideup_vi", "vle64_v",
                                          "vlse64_v", "vse64_v"])
    def test_masked_non_indexed_ops_outside_memory(self, mnemonic):
        # Masks steer only data, so masked arithmetic and slides are
        # admitted; masked accesses are not.
        program = _op_program(mnemonic, 64, 2, {"vd": 8, "vs1": 8,
                                                "vs2": 8, "vs3": 8},
                              masked=True)
        if SPEC_TABLE[mnemonic].is_mem:
            assert not data_free(program)
        else:
            assert _same_outcome(program)[2]
