"""Scalar (CVA6-side) instruction semantics.

Implements the RV64-flavoured scalar IR: integer ALU with 64-bit wrapping,
M-extension multiply/divide with RISC-V division-by-zero semantics, D-
extension scalar FP on float64, loads/stores, and branches.

Handlers operate on pre-decoded :class:`~repro.functional.plan.InstrPlan`
objects: operand indices and the per-mnemonic semantic callable are
resolved once by :func:`resolve_scalar` (called at program decode time),
so the hot path does no ``getattr`` or format-dict dispatch.  A load or
store handler returns the address it accessed; every other handler
returns ``taken``, which tells the executor to redirect to
``plan.target_idx``.  The trace kind of each instruction is a code into
:data:`~repro.functional.trace.SCALAR_KINDS`, resolved with the handler
(a branch's code plus ``taken`` is its taken form).  A data-free run
steps every load and store through :meth:`ScalarUnit.address`, which
moves no data.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError
from ..isa.instructions import InstrSpec
from .memory import FunctionalMemory
from .state import ArchState
from .trace import SCALAR_KINDS

_I64_MASK = (1 << 64) - 1


def _wrap(value: int) -> int:
    value &= _I64_MASK
    return value - (1 << 64) if value >= 1 << 63 else value


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    if a == -(1 << 63) and b == -1:
        return a  # RISC-V overflow case: result is the dividend
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _div(a, b) * b


#: Kind codes (positions in ``SCALAR_KINDS``); loads and stores, the
#: kinds with an address, are the codes from ``S_LOAD`` on.
(S_ALU, S_MUL, S_DIV, S_FP, S_BRANCH, _, S_LOAD,
 S_STORE) = range(len(SCALAR_KINDS))


class ScalarUnit:
    """Executes one scalar instruction against the architectural state."""

    def __init__(self, state: ArchState, mem: FunctionalMemory) -> None:
        self.state = state
        self.mem = mem
        self._xregs = state.x.regs
        self._fregs = state.f.regs

    # ------------------------------------------------------------------
    # Integer ALU
    # ------------------------------------------------------------------
    _BINOPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "mulh": lambda a, b: (a * b) >> 64,
        "div": _div,
        "rem": _rem,
        "and_": lambda a, b: a & b,
        "or_": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "sll": lambda a, b: a << (b & 63),
        "srl": lambda a, b: (a & _I64_MASK) >> (b & 63),
        "sra": lambda a, b: a >> (b & 63),
        "slt": lambda a, b: int(a < b),
        "sltu": lambda a, b: int((a & _I64_MASK) < (b & _I64_MASK)),
        "min_": min,
        "max_": max,
    }
    _IMMOPS = {
        "addi": "add", "andi": "and_", "ori": "or_", "xori": "xor",
        "slli": "sll", "srli": "srl", "srai": "sra", "slti": "slt",
    }
    _MUL_KINDS = frozenset({"mul", "mulh"})
    _DIV_KINDS = frozenset({"div", "rem"})

    # The ALU handlers index the register list directly: x0 holds 0
    # there (writes to it are dropped), so regs[i] reads as x.read(i).
    def _h_alu_rr(self, p):
        if p.rd:
            xregs = self._xregs
            xregs[p.rd] = _wrap(p.aux(xregs[p.rs1], xregs[p.rs2]))
        return False

    def _h_alu_ri(self, p):
        if p.rd:
            xregs = self._xregs
            xregs[p.rd] = _wrap(p.aux(xregs[p.rs1], p.imm))
        return False

    def _h_li(self, p):
        self.state.x.write(p.rd, p.imm)
        return False

    def _h_mv(self, p):
        x = self.state.x
        x.write(p.rd, x.read(p.rs1))
        return False

    def _h_nop(self, p):
        return False

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    _LOAD_SIZES = {"ld": 8, "lw": 4, "lh": 2, "lb": 1}
    _STORE_SIZES = {"sd": 8, "sw": 4, "sh": 2, "sb": 1}

    def _h_load(self, p):
        nbytes = p.aux
        addr = self.state.x.read(p.rs1) + p.imm
        self.state.x.write(p.rd, self.mem.load_int(addr, nbytes, signed=True))
        return addr

    def _h_store(self, p):
        nbytes = p.aux
        addr = self.state.x.read(p.rs1) + p.imm
        self.mem.store_int(addr, self.state.x.read(p.rs2), nbytes)
        return addr

    def _h_fld(self, p):
        addr = self._xregs[p.rs1] + p.imm
        self._fregs[p.frd] = self.mem.load_f64(addr)
        return addr

    def _h_flw(self, p):
        addr = self._xregs[p.rs1] + p.imm
        self._fregs[p.frd] = self.mem.load_f32(addr)
        return addr

    def address(self, p):
        """The address of the load or store ``p``, bounds-checked as
        its access would be (``p.aux`` is its size); no data moves."""
        addr = self._xregs[p.rs1] + p.imm
        if addr < 0 or addr + p.aux > self.mem.size:
            self.mem._check(addr, p.aux)  # raises
        return addr

    def _h_fstore(self, p):
        addr = self.state.x.read(p.rs1) + p.imm
        value = self.state.f.read(p.frs2)
        if p.aux == 8:
            self.mem.store_f64(addr, value)
        else:
            self.mem.store_f32(addr, value)
        return addr

    # ------------------------------------------------------------------
    # Scalar FP
    # ------------------------------------------------------------------
    @staticmethod
    def _fdiv(a: float, b: float) -> float:
        # IEEE-754 semantics including x/0 -> inf and 0/0 -> NaN.
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / np.float64(b))

    _FP_BINOPS = {
        "fadd_d": lambda a, b: a + b,
        "fsub_d": lambda a, b: a - b,
        "fmul_d": lambda a, b: a * b,
        "fdiv_d": None,  # patched below (staticmethod resolution order)
        "fmin_d": min,
        "fmax_d": max,
        "fsgnj_d": lambda a, b: math.copysign(abs(a), b),
    }

    _FP_TERNOPS = {
        "fmadd_d": lambda a, b, c: a * b + c,
        "fmsub_d": lambda a, b, c: a * b - c,
        "fnmadd_d": lambda a, b, c: -(a * b) - c,
        "fnmsub_d": lambda a, b, c: -(a * b) + c,
    }

    _FP_UNOPS = {
        "fsqrt_d": lambda a: math.sqrt(a) if a >= 0 else math.nan,
        "fmv_d": lambda a: a,
        "fneg_d": lambda a: -a,
        "fabs_d": abs,
    }

    _FP_CMPS = {
        "feq_d": lambda a, b: int(a == b),
        "flt_d": lambda a, b: int(a < b),
        "fle_d": lambda a, b: int(a <= b),
    }

    def _h_fp_rr(self, p):
        f = self.state.f
        f.write(p.frd, p.aux(f.read(p.frs1), f.read(p.frs2)))
        return False

    def _h_fp_rrr(self, p):
        f = self.state.f
        f.write(p.frd, p.aux(f.read(p.frs1), f.read(p.frs2), f.read(p.frs3)))
        return False

    def _h_fp_r(self, p):
        f = self.state.f
        f.write(p.frd, p.aux(f.read(p.frs1)))
        return False

    def _h_frd_rs(self, p):
        raw = self.state.x.read(p.rs1)
        if p.aux:  # fcvt.d.l
            value = float(raw)
        else:  # fmv.d.x: reinterpret bits
            value = struct.unpack(
                "<d", (raw & _I64_MASK).to_bytes(8, "little"))[0]
        self.state.f.write(p.frd, value)
        return False

    def _h_rd_frs(self, p):
        a = self.state.f.read(p.frs1)
        if p.aux:  # fcvt.l.d: round towards zero
            value = int(a)
        else:  # fmv.x.d
            value = _wrap(int.from_bytes(struct.pack("<d", a), "little"))
        self.state.x.write(p.rd, value)
        return False

    def _h_fcmp(self, p):
        f = self.state.f
        self.state.x.write(p.rd, p.aux(f.read(p.frs1), f.read(p.frs2)))
        return False

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    _BRANCH_CMP = {
        "beq": lambda a, b: a == b,
        "bne": lambda a, b: a != b,
        "blt": lambda a, b: a < b,
        "bge": lambda a, b: a >= b,
        "bltu": lambda a, b: (a & _I64_MASK) < (b & _I64_MASK),
        "bgeu": lambda a, b: (a & _I64_MASK) >= (b & _I64_MASK),
    }
    _BRANCHZ_CMP = {
        "beqz": lambda a: a == 0,
        "bnez": lambda a: a != 0,
        "bltz": lambda a: a < 0,
        "bgez": lambda a: a >= 0,
        "blez": lambda a: a <= 0,
        "bgtz": lambda a: a > 0,
    }

    def _h_branch(self, p):
        x = self.state.x
        return p.aux(x.read(p.rs1), x.read(p.rs2))

    def _h_branchz(self, p):
        return p.aux(self.state.x.read(p.rs1))

    def _h_j(self, p):
        return True


ScalarUnit._FP_BINOPS["fdiv_d"] = ScalarUnit._fdiv


def resolve_scalar(spec: InstrSpec) -> tuple[Callable, Any, int]:
    """Resolve the handler, per-mnemonic data and trace kind code of one
    scalar mnemonic.

    Called once per static instruction at decode time; the returned
    triple lands in ``plan.scalar_fn`` / ``plan.aux`` / ``plan.skind``.
    """
    m = spec.mnemonic
    fmt = spec.fmt
    su = ScalarUnit
    if m == "li":
        return su._h_li, None, S_ALU
    if m == "mv":
        return su._h_mv, None, S_ALU
    if m == "nop":
        return su._h_nop, None, S_ALU
    if m == "j":
        return su._h_j, None, S_BRANCH
    if fmt == "rd_rs_rs" or fmt == "rd_rs_imm":
        base = su._IMMOPS.get(m, m)
        if base in su._MUL_KINDS:
            kind = S_MUL
        elif base in su._DIV_KINDS:
            kind = S_DIV
        else:
            kind = S_ALU
        handler = su._h_alu_rr if fmt == "rd_rs_rs" else su._h_alu_ri
        return handler, su._BINOPS[base], kind
    if fmt == "load":
        return su._h_load, su._LOAD_SIZES[m], S_LOAD
    if fmt == "store":
        return su._h_store, su._STORE_SIZES[m], S_STORE
    if fmt == "fload":
        if m == "fld":
            return su._h_fld, 8, S_LOAD
        return su._h_flw, 4, S_LOAD
    if fmt == "fstore":
        return su._h_fstore, 8 if m == "fsd" else 4, S_STORE
    if fmt == "frd_frs_frs":
        return su._h_fp_rr, su._FP_BINOPS[m], S_FP
    if fmt == "frd_frs_frs_frs":
        return su._h_fp_rrr, su._FP_TERNOPS[m], S_FP
    if fmt == "frd_frs":
        return su._h_fp_r, su._FP_UNOPS[m], S_FP
    if fmt == "frd_rs":
        return su._h_frd_rs, m == "fcvt_d_l", S_FP
    if fmt == "rd_frs":
        return su._h_rd_frs, m == "fcvt_l_d", S_FP
    if fmt == "rd_frs_frs":
        return su._h_fcmp, su._FP_CMPS[m], S_FP
    if fmt == "branch":
        return su._h_branch, su._BRANCH_CMP[m], S_BRANCH
    if fmt == "branchz":
        return su._h_branchz, su._BRANCHZ_CMP[m], S_BRANCH
    raise ExecutionError(f"no scalar semantics for {m} (fmt {fmt})")
