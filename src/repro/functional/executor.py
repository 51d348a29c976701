"""Functional interpreter: runs a program to completion, writing a trace.

The executor walks the program by basic block, delegating scalar
semantics to :class:`~repro.functional.scalar.ScalarUnit` and vector
semantics to :class:`~repro.functional.vector.VectorUnit`.  It owns the
``vsetvli`` behaviour because that instruction couples scalar state (rd,
rs1) with vector configuration state (vl, vtype).

Each step of the loop retires one :class:`~repro.functional.plan.Block`:
the straight-line run from the current pc to the next branch or jump,
``vsetvli`` or ``halt``, labels skipped.  Every instruction of a block
retires once it is entered (its end is the only control transfer, and
``vl`` and the vtype only change there), so a step extends the trace
buffers of :class:`~repro.functional.trace_pack.TraceBuffers` by the
block's static chunks — event tags, vector instruction indices, the
codes of its body scalars and the sizes of its scalar accesses — and
adds the block's FLOPs times ``vl`` once (FLOP counts are integral, so
the sum is exact).  Only what execution decides is appended row by
row: the base, stride, count and element width of vector memory
accesses, slide amounts, scalar addresses, ``vsetvli`` results and the
branch outcome.  No row index is kept: the trace's
:class:`~repro.functional.trace_pack.PackedTrace` is finished from the
buffers, the run's start vtype and the program's static
:func:`~repro.functional.plan.row_table`, which place each appended
value on its row and give each vector row its ``(vl, SEW, LMUL)``,
memory flags and pattern code.

What is memoized where:

* on the program (:func:`~repro.functional.plan.blocks_for`, beside
  its pre-decoded :class:`~repro.functional.plan.InstrPlan` tuple):
  the static shape of each block, built the first time a run steps
  from its start pc, and the per-instruction row table;
* per run: the vector ops bound to a vtype
  (:meth:`~repro.functional.vector.VectorUnit.bind`), one table per
  ``(SEW, LMUL)`` indexed by pc and filled as ops first retire, and the
  trace codes of the scalar kinds, assigned in first-use order.  A
  bound op belongs to one register file and VLEN, and the kind codes
  to one trace, so neither may outlive the run.

Vtype legality is checked once, for the start state: under ``vill`` (or
a ``vl`` beyond VLMAX set from outside) the table never fills and every
vector op raises until a ``vsetvli``.  ``vl`` only changes at a
``vsetvli``, which keeps it within VLMAX, so a bound op stays valid for
the whole run.  An op that raises (an illegal vector op, a memory
access out of range) raises when it retires: the ops of its block
before it have executed, the ones after it have not.

``max_instructions`` is checked a block at a time: before a block
steps, the run raises if retiring the whole block would exceed the
cap.  A run therefore raises exactly when it would retire more than
``max_instructions`` instructions, before the excess block executes.

A data-free run (``run(program, data=False)``, for a program that
:func:`~repro.functional.plan.data_free` admits) writes the same trace
without computing any data.  No x register of such a program depends
on FP, vector or memory data, so the x registers alone decide every
column.  It steps each block through a body built once per block and
vtype.  That body keeps the integer scalar ops, and the loads and
stores as their address and bounds check alone
(:meth:`~repro.functional.scalar.ScalarUnit.address`).  Its vector ops
are bound by :meth:`~repro.functional.vector.VectorUnit.bind_data_free`,
which makes the same element-type and register-group checks as
:meth:`~repro.functional.vector.VectorUnit.bind`.  Only the ops that
record something stay: memory accesses, which compute and bounds-check
their ``(base, stride, count, element bytes)`` and move no data, and
slides, which yield their amounts.  FP scalar ops and the vector ops
that record nothing are left out.  Where a vector op would raise (an
illegal vtype or register group), the body keeps it and ends there, so
it raises when it retires.  Integer ops, ``vsetvli``, branches,
``max_instructions`` and every bounds, vtype and register-group check
therefore raise where the full run raises.  The memory and the FP and
vector registers keep whatever they held, so a data-free run's final
state and memory mean nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError, IllegalInstructionError
from ..isa.program import Program
from ..isa.vtype import vsetvl_result
from .memory import FunctionalMemory
from .plan import (B_ACCESS, B_ADDRESS, B_SCALAR, B_VECTOR, K_SCALAR,
                   K_VSETVLI, blocks_for, data_free, row_table)
from .scalar import S_FP, ScalarUnit
from .state import ArchState
from .trace_pack import PackedTrace, TraceBuffers
from .vector import VectorUnit

#: Hard cap on retired instructions so a buggy kernel cannot hang a test
#: run; the largest paper workload retires well under this.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


@dataclass
class ExecResult:
    """Outcome of a functional run (``state`` is None on a cached one)."""

    state: ArchState | None
    trace: PackedTrace
    retired: int
    program: Program
    vlen_bits: int
    halted: bool = True
    extra: dict = field(default_factory=dict)


class Executor:
    """Drives a :class:`Program` against fresh or provided machine state."""

    def __init__(self, vlen_bits: int, mem: FunctionalMemory | None = None,
                 state: ArchState | None = None) -> None:
        self.mem = mem if mem is not None else FunctionalMemory()
        self.state = state if state is not None else ArchState(vlen_bits)
        if self.state.vlen_bits != vlen_bits:
            raise ExecutionError(
                f"state VLEN {self.state.vlen_bits} != requested {vlen_bits}"
            )
        self._scalar = ScalarUnit(self.state, self.mem)
        self._vector = VectorUnit(self.state, self.mem)

    # ------------------------------------------------------------------
    def run(self, program: Program,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            data: bool = True) -> ExecResult:
        """Execute until ``halt`` or the end of the program; with
        ``data=False``, a :func:`~repro.functional.plan.data_free`
        program runs without its data (see the module docstring)."""
        if not data and not data_free(program):
            raise ExecutionError(
                f"{program.name} lets data decide an x register or an "
                f"access; it cannot run without data")
        state = self.state
        blocks = blocks_for(program)
        scalar_unit = self._scalar
        address = scalar_unit.address
        vector = self._vector
        bind = vector.bind if data else vector.bind_data_free
        require_legal = state.require_legal_vtype
        n = len(blocks.plans)
        # This run's trace codes of each block's body scalars, by start pc.
        local_codes: dict = {}
        # Per vtype: the bound vector ops, indexed by pc and filled as
        # ops retire, and a data-free run's block bodies, by start pc.
        # An illegal start state (vill, or vl beyond VLMAX) keeps
        # sew = 0, which matches no vsetvli, and its table never fills:
        # every vector op there raises.
        vtypes: dict = {}
        vl = state.vl
        try:
            require_legal()
        except IllegalInstructionError:
            sew = lmul = 0
        else:
            sew, lmul = state.sew_bits, state.lmul_i
        table, bodies = vtypes[sew, lmul] = [None] * n, [None] * n
        buf = TraceBuffers(vl, sew, lmul)
        tags = buf.tags
        kind_code = buf.kind_code
        new_kind = buf.new_kind
        s_kind = buf.s_kind
        s_addr = buf.s_addr.append
        s_nbytes = buf.s_nbytes
        w_vl = buf.w_vl.append
        w_sew = buf.w_sew.append
        w_lmul = buf.w_lmul.append
        v_instr = buf.v_instr
        v_slide = buf.v_slide.append
        m_base = buf.m_base.append
        m_stride = buf.m_stride.append
        m_count = buf.m_count.append
        m_ew = buf.m_ew.append
        total_flops = 0.0
        pc = 0
        retired = 0
        halted = False
        with vector.ieee_errors():
            while pc < n:
                block = blocks[pc]
                if retired + block.retired > max_instructions:
                    raise ExecutionError(
                        f"exceeded {max_instructions} retired instructions "
                        f"(runaway loop in {program.name}?)"
                    )
                codes = local_codes.get(pc)
                if codes is None:  # kinds take trace codes in first use
                    codes = local_codes[pc] = bytes(
                        kind_code[c] if kind_code[c] >= 0 else new_kind(c)
                        for c in block.codes)
                retired += block.retired
                tags += block.tags
                s_kind += codes
                s_nbytes += block.nbytes
                if block.n_vector:
                    v_instr += block.v_instr
                    total_flops += block.flops * vl
                if data:
                    body = zip(block.plans, block.pcs, block.modes)
                else:
                    body = bodies[pc]
                    if body is None:
                        body = bodies[pc] = self._data_free_body(
                            block, table, sew, lmul)
                for p, i, mode in body:
                    if mode == B_VECTOR:
                        fn = table[i]
                        if fn is None:
                            if not sew:
                                require_legal()  # raises
                            fn = table[i] = bind(p, sew, lmul)
                        extra = fn(p, vl, sew, lmul)
                        if extra is not None:
                            if p.vkind != "mem":  # a slide amount
                                v_slide(extra)
                            else:  # (base, stride, count, element bytes)
                                m_base(extra[0])
                                m_stride(extra[1])
                                m_count(extra[2])
                                m_ew(extra[3])
                    elif mode == B_SCALAR:
                        p.scalar_fn(scalar_unit, p)
                    elif mode == B_ACCESS:  # a load or store: its address
                        s_addr(p.scalar_fn(scalar_unit, p))
                    else:  # the same, moving no data
                        s_addr(address(p))
                pc = block.next_pc
                p = block.end
                if p is None:
                    continue
                kind = p.kind
                if kind == K_SCALAR:  # a branch or jump
                    taken = p.scalar_fn(scalar_unit, p)
                    code = p.skind + taken  # a taken branch's is one up
                    local = kind_code[code]
                    s_kind.append(local if local >= 0 else new_kind(code))
                    if taken:
                        pc = p.target_idx
                elif kind == K_VSETVLI:
                    vl = self._vsetvli(p)
                    _, vsew, vlmul = p.aux
                    w_vl(vl)
                    w_sew(vsew)
                    w_lmul(vlmul)
                    if vsew != sew or vlmul != lmul:
                        sew, lmul = vsew, vlmul
                        tables = vtypes.get((sew, lmul))
                        if tables is None:
                            tables = vtypes[sew, lmul] = ([None] * n,
                                                          [None] * n)
                        table, bodies = tables
                else:  # halt
                    halted = True
                    break
        trace = buf.finish(program, total_flops, row_table(program))
        return ExecResult(state, trace, retired, program, state.vlen_bits,
                          halted=halted)

    # ------------------------------------------------------------------
    def _data_free_body(self, block, table: list, sew: int,
                        lmul: int) -> tuple:
        """The ``(plan, pc, mode)`` steps of ``block`` in a data-free run
        under ``(sew, lmul)``, binding its vector ops into ``table``:
        the integer scalars, each load and store as :data:`B_ADDRESS`
        and the vector ops that record something.  A vector op that
        raises when bound (every one, under an illegal vtype) ends the
        body; it raises again when it retires."""
        bind = self._vector.bind_data_free
        body = []
        for p, i, mode in zip(block.plans, block.pcs, block.modes):
            if mode == B_VECTOR:
                if sew:
                    try:
                        fn = table[i] = bind(p, sew, lmul)
                    except ExecutionError:
                        pass
                    else:
                        if fn is not None:
                            body.append((p, i, mode))
                        continue
                body.append((p, i, mode))
                break
            if mode == B_ACCESS:
                body.append((p, i, B_ADDRESS))
            elif p.skind != S_FP:
                body.append((p, i, mode))
        return tuple(body)

    def _vsetvli(self, p) -> int:
        """Apply one ``vsetvli``; returns the new ``vl``."""
        state = self.state
        vtype, sew_i, lmul_i = p.aux
        vlmax = state.vlen_bits * lmul_i // sew_i
        if p.rs1 == 0:
            # rs1=x0: rd!=x0 requests VLMAX; rd==x0 keeps vl (vtype change).
            new_vl = vlmax if p.rd != 0 else min(state.vl, vlmax)
        else:
            avl = state.x.read_unsigned(p.rs1)
            new_vl = vsetvl_result(avl, vtype, state.vlen_bits)
        state.vtype = vtype
        state.vl = new_vl
        state.x.write(p.rd, new_vl)
        return new_vl
