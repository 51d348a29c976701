"""Per-instruction execution plans: the interpreter's pre-decode stage.

The functional interpreter retires tens of millions of instructions per
sweep, so per-retirement string surgery (``mnemonic.rsplit``), operand
dictionary lookups (``instr.op("vd").index``) and handler resolution
(``getattr`` / dict-of-``op()`` chains) dominate the constant factor.  A
:class:`InstrPlan` resolves all of that **once per static instruction**:

* operand register *indices* as plain attributes (``p.vd``, ``p.rs1``...);
* the mnemonic base (``vadd_vv`` -> ``vadd``) and the vector dispatch key
  (``vkind``) with the semantic callable pre-resolved into ``p.aux``;
* the scalar handler function (``p.scalar_fn``) with its per-mnemonic
  data (op callable, byte width, comparison...) in ``p.aux`` and its
  trace kind code (``p.skind``);
* branch targets resolved to instruction *indices* (``p.target_idx``);
* for ``vsetvli``: the decoded :class:`VType` plus its integer SEW/LMUL;
* the index the trace's ``v_instr`` column records for the instruction
  (``p.trace_index``, set by :func:`plans_for`).

Plans are cached: :func:`plans_for` memoizes the full decoded program on
the (immutable) :class:`~repro.isa.program.Program` instance, and
:func:`plan_for_instr` memoizes single-instruction decodes for direct
``VectorUnit.execute`` callers (unit tests).
Only quantities that cannot depend on dynamic state (``vl``, ``vtype``)
are pre-resolved; dtypes still resolve per-retirement from the live SEW
through the memoized singletons in :mod:`repro.functional.state`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import AssemblerError, ExecutionError
from ..isa.instructions import ExecUnit, Instruction, MemPattern
from ..isa.vtype import VType
from . import scalar as _scalar
from .vector_ops import arith, fp, mask as maskops, mem as memops
from .vector_ops.reduce import REDUCTIONS

# Executor-level dispatch tags.
K_HALT, K_LABEL, K_VSETVLI, K_VECTOR, K_SCALAR = range(5)

# Operand-1 source modes (vs1 / rs1 / imm / frs1 / none).
OP1_NONE, OP1_V, OP1_X, OP1_I, OP1_F = range(5)

class InstrPlan:
    """Flat, fully-resolved execution plan for one static instruction."""

    __slots__ = ("instr", "spec", "mnemonic", "base", "masked",
                 "kind", "vkind", "op1_mode", "flops",
                 "vd", "vs1", "vs2", "vs3", "rd", "rs1", "rs2",
                 "frd", "frs1", "frs2", "frs3",
                 "imm", "target", "target_idx",
                 "aux", "scalar_fn", "skind", "trace_index")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstrPlan {self.mnemonic}>"


def _op1_mode(fmt: str) -> int:
    """Mirror of ``VectorUnit._fetch_op1``'s format classification."""
    if fmt.endswith("vv") or fmt in ("vvv", "mm", "red_vs"):
        return OP1_V
    if "x" in fmt.rsplit("_", 1)[-1] or fmt == "vvx":
        return OP1_X
    if fmt == "vvi":
        return OP1_I
    if fmt in ("vvf", "fma_vf"):
        return OP1_F
    return OP1_NONE


def _decode_vector(p: InstrPlan) -> None:
    """Resolve the vector dispatch key and semantic callable."""
    spec = p.spec
    m = p.mnemonic
    base = p.base
    if spec.is_mem:
        p.vkind = "mem"
        if spec.mem_pattern is not MemPattern.MASK:
            p.aux = memops.eew_from_mnemonic(m)
        return
    if spec.is_reduction:
        is_fp = m.startswith("vf")
        signed = not is_fp and m not in ("vredand_vs", "vredor_vs",
                                         "vredxor_vs")
        p.vkind = "red"
        p.aux = (REDUCTIONS[m], is_fp, signed)
        return
    if spec.is_slide:
        if m in ("vslideup_vx", "vslideup_vi", "vslidedown_vx",
                 "vslidedown_vi"):
            p.vkind = "slide_updn"
            p.aux = (m.startswith("vslideup"), spec.fmt == "slide_vx")
        elif spec.slide1:
            p.vkind = "slide1"
            p.aux = ("up" in m, spec.fmt == "slide1_vf")
        elif m == "vrgather_vv":
            p.vkind = "rgather"
        elif m == "vcompress_vm":
            p.vkind = "compress"
        else:  # pragma: no cover - table is closed
            raise ExecutionError(f"unhandled permute {m}")
        return
    if spec.unit is ExecUnit.MASKU:
        if spec.mask_logical:
            p.vkind = "mask_log"
            p.aux = maskops.LOGICAL[base]
        elif m in ("vcpop_m", "vfirst_m"):
            p.vkind = "mask_scalar"
            p.aux = maskops.cpop if m == "vcpop_m" else maskops.first
        elif m in maskops.M_UNARY:
            p.vkind = "m_unary"
            p.aux = maskops.M_UNARY[m]
        elif m == "viota_m":
            p.vkind = "iota"
        elif m == "vid_v":
            p.vkind = "vid"
        else:  # pragma: no cover - table is closed
            raise ExecutionError(f"unhandled mask op {m}")
        return
    if spec.mask_producer:
        p.vkind = "cmp"
        if spec.unit is ExecUnit.VMFPU and base in fp.COMPARES:
            p.aux = (True, fp.COMPARES[base], False)
        else:
            op = arith.COMPARES[base]
            p.aux = (False, op.func, op.signed)
        return
    # Splats, scalar moves and merges (unusual formats) come first, in the
    # same order the interpreter used to test mnemonics.
    if m == "vmv_v_v":
        p.vkind = "mv_vv"
        return
    if m in ("vmv_v_x", "vmv_v_i", "vfmv_v_f"):
        p.vkind = "splat"
        return
    if m == "vmv_s_x":
        p.vkind = "mv_sx"
        return
    if m == "vmv_x_s":
        p.vkind = "mv_xs"
        return
    if m == "vfmv_s_f":
        p.vkind = "fmv_sf"
        return
    if m == "vfmv_f_s":
        p.vkind = "fmv_fs"
        return
    if base in ("vmerge", "vfmerge"):
        p.vkind = "merge"
        p.aux = m.startswith("vf")
        return
    if spec.unit is ExecUnit.VMFPU:
        if m in fp.UNARY:
            p.vkind = "fp_unary"
            p.aux = fp.UNARY[m]
        elif m.startswith(("vfcvt", "vfwcvt", "vfncvt")):
            p.vkind = "fp_cvt"
        elif base in fp.FMA:
            p.vkind = "fp_fma_w" if spec.widens else "fp_fma"
            p.aux = fp.FMA[base]
        elif spec.widens:
            p.vkind = "fp_widen"
            p.aux = fp.WIDENING[base]
        else:
            p.vkind = "fp_bin"
            p.aux = fp.BINOPS[base]
        return
    if base in arith.FMA:
        p.vkind = "int_fma"
        p.aux = arith.FMA[base]
    elif spec.widens:
        p.vkind = "int_widen"
        p.aux = arith.WIDENING[base]
    elif spec.narrows:
        p.vkind = "int_narrow"
    else:
        p.vkind = "int_bin"
        p.aux = arith.BINOPS[base]


def decode(instr: Instruction,
           labels: Optional[dict[str, int]] = None) -> InstrPlan:
    """Build the plan for one instruction (targets resolved via ``labels``)."""
    spec = instr.spec
    p = InstrPlan()
    p.instr = instr
    p.spec = spec
    m = spec.mnemonic
    p.mnemonic = m
    p.base = m.rsplit("_", 1)[0]
    ops = instr.ops
    get = ops.get
    p.masked = bool(get("masked", False))
    reg = get("vd")
    p.vd = reg.index if reg is not None else None
    reg = get("vs1")
    p.vs1 = reg.index if reg is not None else None
    reg = get("vs2")
    p.vs2 = reg.index if reg is not None else None
    reg = get("vs3")
    p.vs3 = reg.index if reg is not None else None
    reg = get("rd")
    p.rd = reg.index if reg is not None else None
    reg = get("rs1")
    p.rs1 = reg.index if reg is not None else None
    reg = get("rs2")
    p.rs2 = reg.index if reg is not None else None
    reg = get("frd")
    p.frd = reg.index if reg is not None else None
    reg = get("frs1")
    p.frs1 = reg.index if reg is not None else None
    reg = get("frs2")
    p.frs2 = reg.index if reg is not None else None
    reg = get("frs3")
    p.frs3 = reg.index if reg is not None else None
    imm = get("imm")
    p.imm = int(imm) if imm is not None else None
    p.target = get("target")
    if p.target is not None and labels is not None:
        try:
            p.target_idx = labels[p.target]
        except KeyError:
            raise AssemblerError(
                f"undefined label {p.target!r}") from None
    else:
        p.target_idx = None
    p.aux = None
    p.scalar_fn = None
    p.skind = None
    p.trace_index = None
    p.vkind = None
    p.op1_mode = _op1_mode(spec.fmt)
    p.flops = spec.flops

    if m == "halt":
        p.kind = K_HALT
    elif m == "label":
        p.kind = K_LABEL
    elif m == "vsetvli":
        p.kind = K_VSETVLI
        vtype = VType(sew=ops["sew"], lmul=ops["lmul"])
        p.aux = (vtype, int(vtype.sew), int(vtype.lmul))
    elif spec.is_vector:
        p.kind = K_VECTOR
        _decode_vector(p)
    else:
        p.kind = K_SCALAR
        p.scalar_fn, p.aux, p.skind = _scalar.resolve_scalar(spec)
    return p


def plan_for_instr(instr: Instruction) -> InstrPlan:
    """Single-instruction decode, memoized on the instruction object.

    Branch targets stay unresolved (``target_idx is None``); direct-call
    users (unit tests poking a lone instruction at a unit) never branch.
    """
    plan = instr.__dict__.get("_plan")
    if plan is None:
        plan = decode(instr)
        # Frozen dataclass: writing through __dict__ bypasses the guard.
        instr.__dict__["_plan"] = plan
    return plan


def plans_for(program) -> tuple[InstrPlan, ...]:
    """Decode (and memoize) the full execution plan of a program.

    Each plan's ``trace_index`` is the *last* position of its
    instruction object in the program, the index the packed trace
    format records for it (so a program that holds one instruction
    object twice still packs like its object trace).
    """
    plans = program.__dict__.get("_plans")
    if plans is None:
        labels = program.labels
        instrs = program.instructions
        last = {id(instr): i for i, instr in enumerate(instrs)}
        plans = tuple(decode(instr, labels) for instr in instrs)
        for p in plans:
            p.trace_index = last[id(p.instr)]
        program.__dict__["_plans"] = plans
    return plans
