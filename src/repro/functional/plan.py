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
the (immutable) :class:`~repro.isa.program.Program` instance.  Beside
the plans, :func:`blocks_for` memoizes the :class:`Block` that starts at
each pc the executor has stepped from (the static shape of a basic
block), :func:`row_table` the trace fields each instruction fixes
for its vector rows (memory flags, pattern code, whether it slides)
and :func:`data_free` whether a run may leave the program's data out.
Only quantities that cannot depend on dynamic state (``vl``, ``vtype``)
are pre-resolved here.  What depends on the vtype as well — dtypes,
EMUL, register-group views — resolves once per binding of a plan to a
vtype (:meth:`repro.functional.vector.VectorUnit.bind`, called by the
executor the first time an op retires under a vtype).
"""

from __future__ import annotations

from array import array
from typing import Any, Optional

import numpy as np

from ..errors import AssemblerError, ExecutionError
from ..isa.instructions import ExecUnit, Instruction, MemPattern
from ..isa.vtype import VType
from . import scalar as _scalar
from .trace_pack import PATTERN_CODE, TAG_SCALAR, TAG_VECTOR, TAG_VSETVL
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


class Block:
    """Static shape of the basic block that starts at one pc.

    A block is the straight-line run of plans from its start to the
    first branch or jump, ``vsetvli`` or ``halt`` (its ``end``, None
    when the run reaches the end of the program), with labels skipped.
    Each retirement of a block retires every instruction in it, so the
    executor steps a whole block at once: it extends the trace columns
    by the block's static chunks and executes the body, then ``end``.

    * the body, the instructions before ``end``, in three parallel
      sequences: ``plans``, their ``pcs`` and their ``modes``
      (:data:`B_VECTOR`, :data:`B_SCALAR` or :data:`B_ACCESS`, a scalar
      load or store).  Programs stay memoized with their blocks, so a
      block holds two objects the cyclic GC tracks (itself and
      ``plans``), not one per instruction;
    * ``tags`` -- the trace tag of every record the block writes, the
      end's included;
    * ``v_instr`` -- the ``trace_index`` of each vector instruction;
    * ``codes`` -- the :data:`~repro.functional.trace.SCALAR_KINDS`
      code of each body scalar, in order (the end's depends on whether
      a branch is taken);
    * ``nbytes`` -- the access size of each scalar load or store;
    * ``retired``, ``n_vector`` -- instructions retired, the end's
      included, and vector rows;
    * ``flops`` -- DP-FLOP per element of ``vl`` over the vector body;
      ``flops`` are integral, so ``flops * vl`` summed per block equals
      the per-instruction sum exactly;
    * ``next_pc`` -- the pc after ``end`` (the fall-through).
    """

    __slots__ = ("plans", "pcs", "modes", "end", "tags", "v_instr", "codes",
                 "nbytes", "retired", "n_vector", "flops", "next_pc")


#: Body modes of a :class:`Block` instruction; a data-free run steps
#: its loads and stores as :data:`B_ADDRESS` (the address only).
B_VECTOR, B_SCALAR, B_ACCESS, B_ADDRESS = range(4)


def _build_block(plans: tuple, start: int) -> Block:
    body = []
    pcs = array("i")
    modes = bytearray()
    tags = bytearray()
    v_instr = array("i")
    codes = bytearray()
    nbytes = array("q")
    flops = 0.0
    end = None
    pc = start
    n = len(plans)
    while pc < n:
        p = plans[pc]
        kind = p.kind
        pc += 1
        if kind == K_VECTOR:
            body.append(p)
            pcs.append(pc - 1)
            modes.append(B_VECTOR)
            tags.append(TAG_VECTOR)
            v_instr.append(p.trace_index)
            flops += p.flops
        elif kind == K_SCALAR:
            if p.skind == _scalar.S_BRANCH:
                tags.append(TAG_SCALAR)
                end = p
                break
            mode = B_SCALAR
            if p.skind >= _scalar.S_LOAD:
                mode = B_ACCESS
                nbytes.append(p.aux)
            body.append(p)
            pcs.append(pc - 1)
            modes.append(mode)
            tags.append(TAG_SCALAR)
            codes.append(p.skind)
        elif kind == K_VSETVLI:
            tags.append(TAG_VSETVL)
            end = p
            break
        elif kind == K_HALT:
            end = p
            break
    block = Block()
    block.plans = tuple(body)
    block.pcs = pcs
    block.modes = bytes(modes)
    block.end = end
    block.tags = bytes(tags)
    block.v_instr = v_instr
    block.codes = bytes(codes)
    block.nbytes = nbytes
    block.retired = len(body) + (end is not None)
    block.n_vector = len(v_instr)
    block.flops = flops
    block.next_pc = pc
    return block


class _Blocks(dict):
    """Start pc -> :class:`Block`, built on first lookup."""

    __slots__ = ("plans",)

    def __missing__(self, start: int) -> Block:
        block = self[start] = _build_block(self.plans, start)
        return block


def blocks_for(program) -> dict:
    """The program's block memo: indexing it by a start pc returns the
    :class:`Block` from there, built on first use and kept on the
    program beside its plans.  Blocks hold only static shape; what a
    run binds (vector ops, local kind codes) stays with the run."""
    blocks = program.__dict__.get("_blocks")
    if blocks is None:
        blocks = _Blocks()
        blocks.plans = plans_for(program)
        program.__dict__["_blocks"] = blocks
    return blocks


#: Vector kinds whose handler returns a slide amount.
_SLIDES = ("slide_updn", "slide1")


def row_table(program) -> np.ndarray:
    """What each instruction fixes for its vector rows: a ``(3, n)``
    ``u1`` array indexed by instruction position (a ``v_instr`` value)
    whose rows are its memory flags (bit 0: an access, bit 1: a store),
    its pattern code and whether it records a slide amount.  Every
    retirement of a vector load or store has a memory row and of a
    slide a slide row, so the trace derives both from ``v_instr``
    (:meth:`~repro.functional.trace_pack.TraceBuffers.finish`).
    Memoized on the program beside its plans."""
    table = program.__dict__.get("_row_table")
    if table is None:
        plans = plans_for(program)
        table = np.zeros((3, len(plans)), np.uint8)
        for i, p in enumerate(plans):
            if p.vkind == "mem":
                table[0, i] = 3 if p.spec.is_store else 1
                table[1, i] = PATTERN_CODE[p.spec.mem_pattern]
            elif p.vkind in _SLIDES:
                table[2, i] = 1
        program.__dict__["_row_table"] = table
    return table


#: Formats and vector kinds that move FP, vector or memory data into an
#: x register: an integer load, ``fmv.x.d``/``fcvt.l.d``, the FP
#: compares, ``vmv.x.s``, ``vcpop.m`` and ``vfirst.m``.
_DATA_TO_X_FORMATS = frozenset({"load", "rd_frs", "rd_frs_frs"})
_DATA_TO_X_KINDS = frozenset({"mv_xs", "mask_scalar"})


def data_free(program) -> bool:
    """Whether a run of the program may leave its data out: no x
    register, and so no address, AVL, slide amount or branch operand,
    can depend on FP, vector or memory data, and no access is indexed
    or masked (whether those raise depends on v0 or index data).  Such
    a run computes the same trace from the x registers alone
    (:meth:`~repro.functional.executor.Executor.run`).  Memoized on the
    program beside its plans."""
    admitted = program.__dict__.get("_data_free")
    if admitted is None:
        admitted = program.__dict__["_data_free"] = not any(
            p.spec.fmt in _DATA_TO_X_FORMATS
            or p.vkind in _DATA_TO_X_KINDS
            or (p.vkind == "mem" and (
                p.masked or p.spec.mem_pattern is MemPattern.INDEXED))
            for p in plans_for(program))
    return admitted
