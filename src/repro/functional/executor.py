"""Functional interpreter: runs a program to completion, writing a trace.

The executor walks the instruction list with a program counter, delegating
scalar semantics to :class:`~repro.functional.scalar.ScalarUnit` and vector
semantics to :class:`~repro.functional.vector.VectorUnit`.  It owns the
``vsetvli`` behaviour because that instruction couples scalar state (rd,
rs1) with vector configuration state (vl, vtype).

The hot loop runs over the program's pre-decoded
:class:`~repro.functional.plan.InstrPlan` tuple (built once per program,
cached on the program object): dispatch is an integer tag compare, branch
targets are pre-resolved instruction indices, and scalar handlers are
pre-bound callables — no per-retirement string or dict lookups.

Vector ops run bound to the current vtype
(:meth:`~repro.functional.vector.VectorUnit.bind`).  The loop keeps one
table per ``(SEW, LMUL)``, indexed by pc and filled the first time an op
retires under that vtype; a ``vsetvli`` that changes the vtype switches
tables.  Vtype legality is checked once, for the start state: under
``vill`` (or a ``vl`` beyond VLMAX set from outside) the table never
fills and every vector op raises until a ``vsetvli``.  ``vl`` only
changes at a ``vsetvli``, which keeps it within VLMAX, so a bound op
stays valid for the whole run.

Each retired instruction is appended straight to the typed column
buffers of :class:`~repro.functional.trace_pack.TraceBuffers` — no event
object per instruction — and the capture's trace is the
:class:`~repro.functional.trace_pack.PackedTrace` over those columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError, IllegalInstructionError
from ..isa.program import Program
from ..isa.vtype import vsetvl_result
from .memory import FunctionalMemory
from .plan import K_HALT, K_SCALAR, K_VECTOR, K_VSETVLI, plans_for
from .scalar import S_LOAD, ScalarUnit
from .state import ArchState
from .trace_pack import (PATTERN_CODE, TAG_SCALAR, TAG_VECTOR, TAG_VSETVL,
                         PackedTrace, TraceBuffers)
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
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> ExecResult:
        """Execute until ``halt`` or the end of the program."""
        state = self.state
        plans = plans_for(program)
        scalar_unit = self._scalar
        vector = self._vector
        bind = vector.bind
        require_legal = state.require_legal_vtype
        # Bound appends of every trace buffer: the loop below writes
        # each retired instruction's record field by field.
        buf = TraceBuffers()
        tag = buf.tags.append
        kind_code = buf.kind_code
        s_kind = buf.s_kind.append
        s_mem_row = buf.s_mem_row.append
        s_addr = buf.s_addr.append
        s_nbytes = buf.s_nbytes.append
        w_vl = buf.w_vl.append
        w_sew = buf.w_sew.append
        w_lmul = buf.w_lmul.append
        v_instr = buf.v_instr.append
        v_vl = buf.v_vl.append
        v_sew = buf.v_sew.append
        v_lmul = buf.v_lmul.append
        slide_row = buf.slide_row.append
        v_slide = buf.v_slide.append
        mem_row = buf.mem_row.append
        v_flags = buf.v_flags.append
        m_base = buf.m_base.append
        m_stride = buf.m_stride.append
        m_count = buf.m_count.append
        m_ew = buf.m_ew.append
        m_pattern = buf.m_pattern.append
        n_scalar = 0
        n_vector = 0
        total_flops = 0.0
        pc = 0
        retired = 0
        halted = False
        n = len(plans)
        # One table of bound vector ops per vtype, indexed by pc and
        # filled as ops retire.  An illegal start state (vill, or vl
        # beyond VLMAX) keeps sew = 0, which matches no vsetvli, and its
        # table never fills: every vector op there raises.
        tables: dict = {}
        table = [None] * n
        vl = state.vl
        try:
            require_legal()
        except IllegalInstructionError:
            sew = lmul = 0
        else:
            sew, lmul = state.sew_bits, state.lmul_i
            tables[sew, lmul] = table
        with vector.ieee_errors():
            while pc < n:
                if retired >= max_instructions:
                    raise ExecutionError(
                        f"exceeded {max_instructions} retired instructions "
                        f"(runaway loop in {program.name}?)"
                    )
                p = plans[pc]
                kind = p.kind
                pc += 1
                if kind == K_VECTOR:
                    retired += 1
                    fn = table[pc - 1]
                    if fn is None:
                        if not sew:
                            require_legal()  # raises
                        fn = table[pc - 1] = bind(p, sew, lmul)
                    extra = fn(p, vl, sew, lmul)
                    total_flops += p.flops * vl
                    if extra is not None:
                        if p.vkind != "mem":  # a slide amount
                            slide_row(n_vector)
                            v_slide(extra)
                        else:  # (base, stride, count, element bytes)
                            spec = p.spec
                            mem_row(n_vector)
                            v_flags(3 if spec.is_store else 1)
                            m_base(extra[0])
                            m_stride(extra[1])
                            m_count(extra[2])
                            m_ew(extra[3])
                            m_pattern(PATTERN_CODE[spec.mem_pattern])
                    tag(TAG_VECTOR)
                    v_instr(p.trace_index)
                    v_vl(vl)
                    v_sew(sew)
                    v_lmul(lmul)
                    n_vector += 1
                elif kind == K_SCALAR:
                    retired += 1
                    out = p.scalar_fn(scalar_unit, p)
                    code = p.skind
                    if code >= S_LOAD:  # a load or store: out = address
                        s_mem_row(n_scalar)
                        s_addr(out)
                        s_nbytes(p.aux)
                    else:  # out = taken; a taken branch's code is one up
                        code += out
                        if out:
                            pc = p.target_idx
                    local = kind_code[code]
                    if local < 0:
                        local = buf.new_kind(code)
                    tag(TAG_SCALAR)
                    s_kind(local)
                    n_scalar += 1
                elif kind == K_VSETVLI:
                    retired += 1
                    vl = self._vsetvli(p)
                    _, vsew, vlmul = p.aux
                    tag(TAG_VSETVL)
                    w_vl(vl)
                    w_sew(vsew)
                    w_lmul(vlmul)
                    if vsew != sew or vlmul != lmul:
                        sew, lmul = vsew, vlmul
                        table = tables.get((sew, lmul))
                        if table is None:
                            table = tables[sew, lmul] = [None] * n
                elif kind == K_HALT:
                    retired += 1
                    halted = True
                    break
        return ExecResult(state, buf.finish(program, total_flops), retired,
                          program, state.vlen_bits, halted=halted)

    # ------------------------------------------------------------------
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
