"""The functional vector engine: RVV state handling + dispatch.

Fetches operands from the VRF, applies the pure semantics from
:mod:`repro.functional.vector_ops`, and handles masking (mask-undisturbed)
and tail policy (tail-undisturbed, legal under agnosticism).  Each
handler returns what its execution decides for the trace — a memory
access's ``(base, stride, count, element bytes)``, a slide's amount,
else ``None`` — which the executor appends to the trace columns.  The
unit is driven only by :class:`~repro.functional.executor.Executor`:
a lone instruction runs as a one-instruction program.

Hot-path notes (this module runs once per retired vector instruction):

* dispatch, operand indices and semantic callables come pre-resolved from
  the instruction's :class:`~repro.functional.plan.InstrPlan` — no string
  splitting or operand-dict lookups here;
* what depends only on ``(instruction, SEW, LMUL)`` is resolved once per
  binding (:meth:`VectorUnit.bind`): the kinds that dominate kernel
  traffic — FP FMA and binary ops, memory accesses, ``slide1`` and
  splats — become closures over their dtypes, the zero-copy views of
  their register groups (legality checked once, when the view is made)
  and the scalar register lists.  The executor keeps one bound table per
  vtype and run, and a bound op keeps its views sliced per ``vl``, so a
  retirement looks its operands up and computes (into the destination
  view, where it can);
* the remaining kinds run through :meth:`VectorUnit.execute_plan`, whose
  VRF reads feeding pure computations use ``copy=False`` views (every
  semantic function allocates a fresh result before anything is written
  back, and register groups of equal EMUL are equal-or-disjoint);
* the ``v0`` mask is unpacked once and cached until ``v0`` is written
  (tracked by ``VectorRegFile.v0_writes``) or ``vl`` changes;
* handlers run inside one :meth:`VectorUnit.ieee_errors` scope per
  executor run instead of entering ``np.errstate`` per FP operation.

A data-free run binds through :meth:`VectorUnit.bind_data_free`
instead: the same element-type and register-group checks, then only
what the op records — a memory access's bounds-checked ``(base,
stride, count, element bytes)`` or a slide amount — and nothing at all
for an op that records nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..errors import ExecutionError
from ..isa.instructions import MemPattern
from .memory import FunctionalMemory
from .plan import InstrPlan, OP1_F, OP1_I, OP1_V, OP1_X
from .state import ArchState, fp_dtype, int_dtype
from .vector_ops import fp, mask as maskops, permute


_UNIT_DTYPES = {1: np.dtype("u1"), 2: np.dtype("u2"),
                4: np.dtype("u4"), 8: np.dtype("u8")}
_I64_MASK = (1 << 64) - 1
_MASK, _INDEXED, _UNIT = MemPattern.MASK, MemPattern.INDEXED, MemPattern.UNIT

#: NumPy error state of vector FP arithmetic: overflow to ±inf, invalid
#: operations yielding NaN and division by zero are the defined
#: IEEE-754 results, not errors.
IEEE_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


#: The register groups of more than one register that each kind's
#: handler or binder views, as ``(operand, EMUL / LMUL)``; ``"op1"`` is
#: vs1 where the first operand is a vector.  Memory accesses and
#: conversions work theirs out from the mnemonic; kinds missing here
#: view single registers only, which are always legal.
_GROUPS = {
    "red": (("vs2", 1),),
    "slide_updn": (("vd", 1), ("vs2", 1)),
    "slide1": (("vs2", 1), ("vd", 1)),
    "rgather": (("vs2", 1), ("vs1", 1), ("vd", 1)),
    "compress": (("vs2", 1), ("vd", 1)),
    "iota": (("vd", 1),),
    "vid": (("vd", 1),),
    "cmp": (("vs2", 1), ("op1", 1)),
    "mv_vv": (("vs2", 1), ("vd", 1)),
    "merge": (("vs2", 1), ("op1", 1), ("vd", 1)),
    "splat": (("vd", 1),),
    "fp_unary": (("vs2", 1), ("vd", 1)),
    "fp_fma": (("vd", 1), ("op1", 1), ("vs2", 1)),
    "fp_bin": (("vs2", 1), ("op1", 1), ("vd", 1)),
    "fp_fma_w": (("vd", 2), ("op1", 1), ("vs2", 1)),
    "fp_widen": (("vs2", 1), ("op1", 1), ("vd", 2)),
    "int_fma": (("vd", 1), ("op1", 1), ("vs2", 1)),
    "int_bin": (("vs2", 1), ("op1", 1), ("vd", 1)),
    "int_widen": (("vs2", 1), ("op1", 1), ("vd", 2)),
    "int_narrow": (("vs2", 2), ("op1", 1), ("vd", 1)),
    "fp_cvt": (("vs2", 1), ("vd", 1)),
}
#: Conversions whose operands differ in width.
_CVT_GROUPS = {"vfwcvt_f_f_v": (("vs2", 1), ("vd", 2)),
               "vfncvt_f_f_w": (("vs2", 2), ("vd", 1))}
#: Kinds that resolve an FP, or an integer, type of twice SEW.
_WIDE_FP = frozenset({"fp_fma_w", "fp_widen"})
_WIDE_INT = frozenset({"int_widen", "int_narrow"})


def _slide1_amount(p, vl, sew, lmul):
    return 1


def _cuts(*views: np.ndarray):
    """``(at, cut)`` over ``views`` sliced per ``vl``: ``at(vl)`` is the
    tuple of their first ``vl`` elements once ``cut(vl)`` has made it
    (None before), so ``at(vl) or cut(vl)`` slices each ``vl`` once.
    Bound ops never see a ``vl`` beyond VLMAX, so the memo holds at most
    VLMAX + 1 entries."""
    sliced: dict = {}

    def cut(vl, sliced=sliced, views=views):
        cuts = sliced[vl] = tuple(view[:vl] for view in views)
        return cuts

    return sliced.get, cut


class VectorUnit:
    """Executes vector instructions against the architectural state."""

    #: vkind -> binder method name (see :meth:`bind`).
    _BINDERS = {
        "fp_fma": "_bind_fp_fma",
        "fp_bin": "_bind_fp_bin",
        "mem": "_bind_mem",
        "slide1": "_bind_slide1",
        "splat": "_bind_splat",
    }
    #: vkind -> handler method name of the kinds without a binder.
    _HANDLERS = {
        "red": "_h_reduction",
        "slide_updn": "_h_slide_updn",
        "rgather": "_h_rgather",
        "compress": "_h_compress",
        "mask_log": "_h_mask_log",
        "mask_scalar": "_h_mask_scalar",
        "m_unary": "_h_m_unary",
        "iota": "_h_iota",
        "vid": "_h_vid",
        "cmp": "_h_compare",
        "mv_vv": "_h_mv_vv",
        "mv_sx": "_h_mv_sx",
        "mv_xs": "_h_mv_xs",
        "fmv_sf": "_h_fmv_sf",
        "fmv_fs": "_h_fmv_fs",
        "merge": "_h_merge",
        "fp_unary": "_h_fp_unary",
        "fp_cvt": "_h_fp_cvt",
        "fp_fma_w": "_h_fp_fma_w",
        "fp_widen": "_h_fp_widen",
        "int_fma": "_h_int_fma",
        "int_widen": "_h_int_widen",
        "int_narrow": "_h_int_narrow",
        "int_bin": "_h_int_bin",
    }

    def __init__(self, state: ArchState, mem: FunctionalMemory) -> None:
        # The unit keeps no bound method of itself (the dispatch tables
        # hold plain functions): that reference cycle would keep the
        # unit, its state and its memory image alive until the cyclic
        # GC ran, so an executor is freed as soon as it is dropped.
        self.state = state
        self.mem = mem
        self._group = state.v.typed_view
        self._xregs = state.x.regs
        self._fregs = state.f.regs
        self._v0_key = -1
        self._v0_vl = -1
        self._v0_bits: Optional[np.ndarray] = None
        self._caller_err = self._int_err = np.geterr()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    @contextmanager
    def ieee_errors(self):
        """Scope that vector instructions execute in.

        FP arithmetic — and the data-movement handlers, which do none —
        run under :data:`IEEE_ERRSTATE`, entered once for the scope.
        The integer and conversion handlers restore the error state the
        scope was entered with, so their numpy warnings still surface.
        """
        caller = np.geterr()
        self._caller_err = caller
        self._int_err = {**caller, "over": "ignore"}  # integers wrap
        with np.errstate(**IEEE_ERRSTATE):
            yield

    def bind(self, p: InstrPlan, sew: int, lmul: int):
        """``p`` bound to the legal vtype ``(sew, lmul)``: a callable
        with :meth:`execute_plan`'s signature, valid while the vtype
        holds and ``vl`` <= VLMAX (which keeps every slice of a bound
        view in range).

        Binding resolves dtypes and register-group views, running the
        group legality checks, so an illegal operand raises here.  Kinds
        without a binder get :meth:`execute_plan` itself.
        """
        binder = _BINDER_FNS.get(p.vkind)
        if binder is None:
            return self.execute_plan
        return binder(self, p, sew, lmul)

    def bind_data_free(self, p: InstrPlan, sew: int, lmul: int):
        """``p`` bound to the legal vtype ``(sew, lmul)`` for a run
        without data: None when it records nothing, else a callable with
        :meth:`execute_plan`'s signature that returns only what it
        records — a memory access's ``(base, stride, count, element
        bytes)``, raising first where the access would, or a slide
        amount.  Binding makes the element-type and register-group
        checks that :meth:`bind` or the handler make, raising as they
        would.  ``p`` is of a :func:`~repro.functional.plan.data_free`
        program, so it is no indexed or masked access (whether those
        raise depends on data).
        """
        self._check_operands(p, sew, lmul)
        kind = p.vkind
        if kind == "mem":
            return self._bind_addresses(p, sew, lmul)
        if kind == "slide1":
            return _slide1_amount
        if kind == "slide_updn":
            is_up, from_reg = p.aux
            vlmax = self.state.vlen_bits * lmul // sew
            if not from_reg:
                offset = min(p.imm, vlmax)
                return lambda p, vl, sew, lmul: offset
            xregs, rs1 = self._xregs, p.rs1

            def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, vlmax=vlmax):
                return min(xregs[rs1] & _I64_MASK, vlmax)
            return run
        return None

    def _check_operands(self, p: InstrPlan, sew: int, lmul: int) -> None:
        """The element-type and register-group checks of ``p``'s
        handler or binder under ``(sew, lmul)``, raising as they do."""
        kind = p.vkind
        if p.mnemonic.startswith(("vf", "vmf")):
            fp_dtype(sew)
        if kind in _WIDE_FP or p.mnemonic in _CVT_GROUPS:
            fp_dtype(2 * sew)
        elif kind in _WIDE_INT:
            int_dtype(2 * sew)
        group = self.state.v._group_bytes
        if kind == "mem":
            spec = p.spec
            reg = p.vd if spec.is_load else p.vs3
            if spec.mem_pattern is _MASK:
                group(reg, 1)
            else:
                group(reg, p.aux * lmul // sew or 1)
            return
        groups = _CVT_GROUPS.get(p.mnemonic) or _GROUPS.get(kind, ())
        for operand, factor in groups:
            if operand == "op1":
                if p.op1_mode != OP1_V:
                    continue
                operand = "vs1"
            group(getattr(p, operand), factor * lmul)

    def _bind_addresses(self, p: InstrPlan, sew: int, lmul: int):
        """A unit-stride, strided or mask access that only computes its
        ``(base, stride, count, element bytes)`` and raises where moving
        its data would."""
        spec = p.spec
        pattern = spec.mem_pattern
        mem = self.mem
        size, check = mem.size, mem._check
        xregs, rs1 = self._xregs, p.rs1
        if pattern is _MASK:
            def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, size=size,
                    check=check):
                base = xregs[rs1] & _I64_MASK
                count = (vl + 7) // 8
                if base + count > size:
                    check(base, count)  # raises
                return base, 1, count, 1
            return run
        ew = p.aux // 8
        if pattern is _UNIT:
            def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, size=size,
                    check=check, ew=ew):
                base = xregs[rs1] & _I64_MASK
                if base + vl * ew > size:
                    check(base, vl * ew)  # raises
                return base, ew, vl, ew
            return run
        # Strided: the access's own check runs wherever plain integers
        # do not prove it passes (it also raises on a base beyond the
        # int64 range); an access of no element checks nothing.
        rs2, check_strided = p.rs2, mem.check_strided

        def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, rs2=rs2, size=size,
                check_strided=check_strided, ew=ew):
            base = xregs[rs1] & _I64_MASK
            stride = xregs[rs2]
            if vl:
                last = base + stride * (vl - 1)
                if min(base, last) < 0 or max(base, last) + ew > size:
                    check_strided(base, vl, stride, ew)
            return base, stride, vl, ew
        return run

    def execute_plan(self, p: InstrPlan, vl: int, sew: int, lmul: int):
        """Execute ``p`` (of a kind without a binder) at the given
        configuration inside an :meth:`ieee_errors` scope; returns the
        handler's trace fields (see the module docstring)."""
        return _HANDLER_FNS[p.vkind](
            self, p, vl, sew, lmul, self._v0_mask(vl) if p.masked else None)

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------
    def _v0_mask(self, vl: int) -> np.ndarray:
        """Boolean view of v0's first ``vl`` mask bits, cached until v0
        is written or ``vl`` changes.  Consumers must not mutate it."""
        vfile = self.state.v
        key = vfile.v0_writes
        if self._v0_key == key and self._v0_vl == vl:
            return self._v0_bits
        bits = vfile.read_mask(0, vl)
        self._v0_key = key
        self._v0_vl = vl
        self._v0_bits = bits
        return bits

    def _fetch_op1(self, p: InstrPlan, vl: int, dtype: np.dtype):
        """vs1 / rs1 / imm / frs1 operand resolved to an array or scalar."""
        mode = p.op1_mode
        if mode == OP1_V:
            return self.state.v.read_elems(
                p.vs1, vl, dtype, self.state.lmul_i, copy=False)
        if mode == OP1_X:
            return self._splat_int(self.state.x.read(p.rs1), dtype, vl)
        if mode == OP1_I:
            return self._splat_int(p.imm, dtype, vl)
        if mode == OP1_F:
            # NumPy scalar of the operand dtype: broadcasting against the
            # vs2 array computes the same elementwise results as the old
            # np.full splat without materializing vl copies.
            return dtype.type(self.state.f.read(p.frs1))
        raise ExecutionError(f"cannot fetch op1 for format {p.spec.fmt}")

    @staticmethod
    def _splat_int(value: int, dtype: np.dtype, vl: int) -> np.ndarray:
        bits = dtype.itemsize * 8
        value &= (1 << bits) - 1
        return np.full(vl, value, dtype=_UNIT_DTYPES[dtype.itemsize]) \
            .view(dtype)

    # ------------------------------------------------------------------
    # Moves / splats / merges
    # ------------------------------------------------------------------
    def _h_mv_vv(self, p, vl, sew, lmul, mask_bits):
        src = self.state.v.read_elems(
            p.vs2, vl, int_dtype(sew), lmul, copy=False)
        self.state.v.write_elems(p.vd, src, lmul, mask_bits)
        return None

    def _h_mv_sx(self, p, vl, sew, lmul, mask_bits):
        self.state.v.write_elems(
            p.vd,
            self._splat_int(self.state.x.read(p.rs1), int_dtype(sew), 1),
            emul=1)
        return None

    def _h_mv_xs(self, p, vl, sew, lmul, mask_bits):
        value = self.state.v.read_elems(
            p.vs2, 1, int_dtype(sew, signed=True), 1, copy=False)[0]
        self.state.x.write(p.rd, int(value))
        return None

    def _h_fmv_sf(self, p, vl, sew, lmul, mask_bits):
        self.state.v.write_elems(
            p.vd,
            np.array([self.state.f.read(p.frs1)], dtype=fp_dtype(sew)),
            emul=1)
        return None

    def _h_fmv_fs(self, p, vl, sew, lmul, mask_bits):
        value = self.state.v.read_elems(
            p.vs2, 1, fp_dtype(sew), 1, copy=False)[0]
        self.state.f.write(p.frd, float(value))
        return None

    def _h_merge(self, p, vl, sew, lmul, mask_bits):
        # Merges read v0 as selector regardless of `masked`.
        selector = self._v0_mask(vl)
        dtype = fp_dtype(sew) if p.aux else int_dtype(sew)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        result = np.where(selector, op1, vs2).astype(dtype)
        self.state.v.write_elems(p.vd, result, lmul, None)
        return None

    # ------------------------------------------------------------------
    # Integer element-wise
    # ------------------------------------------------------------------
    def _h_int_fma(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        with np.errstate(**self._int_err):
            result = p.aux(vd, op1, vs2).astype(dtype)
        v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    def _h_int_widen(self, p, vl, sew, lmul, mask_bits):
        narrow = int_dtype(sew, signed=True)
        wide = int_dtype(2 * sew, signed=True)
        vs2 = self.state.v.read_elems(
            p.vs2, vl, narrow, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, narrow)
        with np.errstate(**self._caller_err):
            result = p.aux(vs2.astype(wide), op1.astype(wide)).astype(wide)
        self.state.v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return None

    def _h_int_narrow(self, p, vl, sew, lmul, mask_bits):  # vnsrl
        wide_u = int_dtype(2 * sew)
        vs2 = self.state.v.read_elems(
            p.vs2, vl, wide_u, 2 * lmul, copy=False)
        op1 = self._fetch_op1(p, vl, wide_u)
        with np.errstate(**self._caller_err):
            shift = (op1.astype(np.uint64) & np.uint64(2 * sew - 1)) \
                .astype(wide_u)
            result = np.right_shift(vs2, shift).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    def _h_int_bin(self, p, vl, sew, lmul, mask_bits):
        op = p.aux
        dtype = int_dtype(sew, signed=op.signed)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        with np.errstate(**self._int_err):
            result = op.func(vs2, op1).astype(dtype)
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    # ------------------------------------------------------------------
    # Floating-point element-wise
    # ------------------------------------------------------------------
    def _h_fp_unary(self, p, vl, sew, lmul, mask_bits):
        vs2 = self.state.v.read_elems(
            p.vs2, vl, fp_dtype(sew), lmul, copy=False)
        self.state.v.write_elems(p.vd, p.aux(vs2), lmul, mask_bits)
        return None

    def _h_fp_fma_w(self, p, vl, sew, lmul, mask_bits):  # vfwmacc
        wide = fp_dtype(2 * sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, wide, 2 * lmul, copy=False)
        op1 = np.asarray(self._fetch_op1(p, vl, fp_dtype(sew)), dtype=wide)
        vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul,
                           copy=False).astype(wide)
        result = p.aux(vd, op1, vs2)
        v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return None

    def _h_fp_widen(self, p, vl, sew, lmul, mask_bits):  # vfwadd/vfwmul
        wide = fp_dtype(2 * sew)
        vs2 = self.state.v.read_elems(
            p.vs2, vl, fp_dtype(sew), lmul, copy=False).astype(wide)
        op1 = np.asarray(self._fetch_op1(p, vl, fp_dtype(sew)), dtype=wide)
        result = p.aux(vs2, op1)
        self.state.v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return None

    def _h_fp_cvt(self, p, vl, sew, lmul, mask_bits):
        mnem = p.mnemonic
        v = self.state.v
        if mnem in ("vfcvt_x_f_v", "vfcvt_rtz_x_f_v"):
            vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False)
            rounded = np.rint(vs2) if mnem == "vfcvt_x_f_v" else np.trunc(vs2)
            # Integer conversions keep the caller's error state: a NaN
            # or out-of-range element warns.
            with np.errstate(**self._caller_err):
                result = rounded.astype(int_dtype(sew, signed=True))
            v.write_elems(p.vd, result, lmul, mask_bits)
        elif mnem == "vfcvt_f_x_v":
            vs2 = v.read_elems(
                p.vs2, vl, int_dtype(sew, signed=True), lmul, copy=False)
            with np.errstate(**self._caller_err):
                result = vs2.astype(fp_dtype(sew))
            v.write_elems(p.vd, result, lmul, mask_bits)
        elif mnem == "vfwcvt_f_f_v":  # a signaling NaN converts quietly
            vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False)
            v.write_elems(p.vd, vs2.astype(fp_dtype(2 * sew)), 2 * lmul,
                          mask_bits)
        elif mnem == "vfncvt_f_f_w":  # out-of-range elements go to ±inf
            vs2 = v.read_elems(
                p.vs2, vl, fp_dtype(2 * sew), 2 * lmul, copy=False)
            v.write_elems(p.vd, vs2.astype(fp_dtype(sew)), lmul, mask_bits)
        else:  # pragma: no cover
            raise ExecutionError(f"unhandled conversion {mnem}")
        return None

    # ------------------------------------------------------------------
    # Compares -> mask destination
    # ------------------------------------------------------------------
    def _h_compare(self, p, vl, sew, lmul, mask_bits):
        is_fp, func, signed = p.aux
        dtype = fp_dtype(sew) if is_fp else int_dtype(sew, signed=signed)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        bits = np.asarray(func(vs2, op1), dtype=bool)
        if mask_bits is not None:
            old = self.state.v.read_mask(p.vd, vl)
            bits = np.where(mask_bits, bits, old)
        self.state.v.write_mask(p.vd, bits)
        return None

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _h_reduction(self, p, vl, sew, lmul, mask_bits):
        fn, is_fp, signed = p.aux
        dtype = fp_dtype(sew) if is_fp else int_dtype(sew, signed=signed)
        values = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        if not vl:  # RVV 1.0: no operation, vd keeps its value
            return None
        if mask_bits is not None:
            values = values[mask_bits]
        seed = self.state.v.read_elems(p.vs1, 1, dtype, 1, copy=False)[0]
        result = fn(values, seed)
        self.state.v.write_elems(
            p.vd, np.array([result], dtype=dtype), emul=1)
        return None

    # ------------------------------------------------------------------
    # Slides / gathers
    # ------------------------------------------------------------------
    def _h_slide_updn(self, p, vl, sew, lmul, mask_bits):
        is_up, from_reg = p.aux
        dtype = int_dtype(sew)
        offset = (self.state.x.read_unsigned(p.rs1) if from_reg else p.imm)
        vlmax = self.state.vlen_bits * lmul // sew
        offset = min(offset, vlmax)
        v = self.state.v
        if is_up:
            dest = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
            vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
            result = permute.slideup(vs2, dest, offset)
            write_mask = np.arange(vl) >= offset
            if mask_bits is not None:
                write_mask &= mask_bits
            v.write_elems(p.vd, result, lmul, write_mask)
        else:
            vs2_full = v.read_elems(p.vs2, vlmax, dtype, lmul, copy=False)
            result = permute.slidedown(vs2_full, vl, offset)
            v.write_elems(p.vd, result, lmul, mask_bits)
        return offset

    def _h_rgather(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        vlmax = self.state.vlen_bits * lmul // sew
        v = self.state.v
        vs2_full = v.read_elems(p.vs2, vlmax, dtype, lmul, copy=False)
        indices = v.read_elems(p.vs1, vl, dtype, lmul, copy=False)
        result = permute.rgather(vs2_full, indices, vlmax)
        v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    def _h_compress(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        v = self.state.v
        select = v.read_mask(p.vs1, vl)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        dest = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        result = permute.compress(vs2, select, dest)
        v.write_elems(p.vd, result, lmul)
        return None

    # ------------------------------------------------------------------
    # Mask unit
    # ------------------------------------------------------------------
    def _h_mask_log(self, p, vl, sew, lmul, mask_bits):
        v = self.state.v
        a = v.read_mask(p.vs2, vl)
        b = v.read_mask(p.vs1, vl)
        v.write_mask(p.vd, p.aux(a, b))
        return None

    def _h_mask_scalar(self, p, vl, sew, lmul, mask_bits):  # vcpop/vfirst
        bits = self.state.v.read_mask(p.vs2, vl)
        if mask_bits is not None:
            bits = bits & mask_bits
        self.state.x.write(p.rd, p.aux(bits))
        return None

    def _h_m_unary(self, p, vl, sew, lmul, mask_bits):
        v = self.state.v
        bits = v.read_mask(p.vs2, vl)
        result = p.aux(bits)
        if mask_bits is not None:
            old = v.read_mask(p.vd, vl)
            result = np.where(mask_bits, result, old)
        v.write_mask(p.vd, result)
        return None

    def _h_iota(self, p, vl, sew, lmul, mask_bits):
        bits = self.state.v.read_mask(p.vs2, vl)
        if mask_bits is not None:
            bits = bits & mask_bits
        result = maskops.iota(bits).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    def _h_vid(self, p, vl, sew, lmul, mask_bits):
        result = np.arange(vl, dtype=np.int64).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return None

    # ------------------------------------------------------------------
    # Bound kinds: everything fixed by (instruction, SEW, LMUL) resolved
    # once, in the order the operands are accessed.  ``vl`` changes only
    # at a ``vsetvli``, so a bound op also slices its register-group
    # views (and scratch) once per ``vl``: each binding keeps a dict
    # from ``vl`` to its sliced views (:func:`_cuts`), at most VLMAX + 1
    # entries, and a retirement looks them up instead of slicing.  Where
    # the semantic function is a ufunc and no mask intervenes, the op
    # writes straight into the destination view through a positional
    # ``out``; an unmasked unit-stride load copies memory into it.
    # Binding runs about once per retirement on short programs (fuzz),
    # so it stays lean: the bound functions take what they capture as
    # parameter defaults, not closure cells, which the cyclic GC would
    # track one by one.  Callers pass only ``(p, vl, sew, lmul)`` (or
    # ``(vl, values)``).
    # ------------------------------------------------------------------
    def _writer(self, base: int, view: np.ndarray, masked: bool):
        """``write(vl, values)`` into the first ``vl`` elements of
        ``view``, the group at ``base``: mask-undisturbed under v0 when
        ``masked``, tail-undisturbed, counting a write that hits v0."""
        vfile = self.state.v
        at, cut = _cuts(view)
        if masked:
            v0_mask = self._v0_mask

            def write(vl, values, v0_mask=v0_mask, base=base, vfile=vfile,
                      at=at, cut=cut, copyto=np.copyto):
                mask = v0_mask(vl)
                if base == 0:
                    vfile.v0_writes += 1
                copyto((at(vl) or cut(vl))[0], values, where=mask)
        else:
            def write(vl, values, base=base, vfile=vfile, at=at, cut=cut,
                      copyto=np.copyto):
                if base == 0:
                    vfile.v0_writes += 1
                copyto((at(vl) or cut(vl))[0], values)
        return write

    def _bind_fp_fma(self, p, sew, lmul):
        dtype = fp_dtype(sew)
        group = self._group
        vd = group(p.vd, lmul, dtype)
        mode = p.op1_mode
        if mode == OP1_V:
            vs1 = group(p.vs1, lmul, dtype)
        elif mode != OP1_F:
            raise ExecutionError(f"cannot fetch op1 for format {p.spec.fmt}")
        vs2 = group(p.vs2, lmul, dtype)
        if not p.masked:
            return self._fma_in_place(p, dtype, vd,
                                      vs1 if mode == OP1_V else None, vs2)
        write = self._writer(p.vd, vd, True)
        fn = p.aux
        if mode == OP1_V:
            def run(p, vl, sew, lmul, write=write, fn=fn, vd=vd, vs1=vs1,
                    vs2=vs2):
                write(vl, fn(vd[:vl], vs1[:vl], vs2[:vl]))
        else:
            fregs, frs1, scalar = self._fregs, p.frs1, dtype.type

            def run(p, vl, sew, lmul, write=write, fn=fn, vd=vd, scalar=scalar,
                    fregs=fregs, frs1=frs1, vs2=vs2):
                write(vl, fn(vd[:vl], scalar(fregs[frs1]), vs2[:vl]))
        return run

    def _fma_in_place(self, p, dtype, vd, vs1, vs2):
        """Unmasked FMA run: the :data:`~repro.functional.vector_ops.fp
        .FMA_IN_PLACE` steps of ``p``'s function, the product into a
        per-binding VLMAX scratch and the result straight into vd
        (``vs1`` is None for a scalar op1).  A write to v0 bumps
        ``v0_writes`` like any other."""
        on_vd, negate, combine = fp.FMA_IN_PLACE[p.base]
        # Per vl: (product operand, combine operand, vd, scratch[, vs1]).
        views = (vd if on_vd else vs2, vs2 if on_vd else vd, vd,
                 np.empty(vd.size, dtype))
        if vs1 is not None:
            views += (vs1,)
        at, cut = _cuts(*views)
        vfile = self.state.v
        bump = p.vd == 0

        if vs1 is not None:
            def run(p, vl, sew, lmul, at=at, cut=cut, multiply=np.multiply,
                    negate=negate, combine=combine, bump=bump, vfile=vfile):
                x, y, d, t, a = at(vl) or cut(vl)
                multiply(a, x, t)
                if negate:
                    np.negative(t, t)
                combine(t, y, d)
                if bump:
                    vfile.v0_writes += 1
        else:
            fregs, frs1, scalar = self._fregs, p.frs1, dtype.type

            def run(p, vl, sew, lmul, at=at, cut=cut, multiply=np.multiply,
                    negate=negate, combine=combine, bump=bump, vfile=vfile,
                    scalar=scalar, fregs=fregs, frs1=frs1):
                x, y, d, t = at(vl) or cut(vl)
                multiply(scalar(fregs[frs1]), x, t)
                if negate:
                    np.negative(t, t)
                combine(t, y, d)
                if bump:
                    vfile.v0_writes += 1
        return run

    def _bind_fp_bin(self, p, sew, lmul):
        dtype = fp_dtype(sew)
        group = self._group
        vs2 = group(p.vs2, lmul, dtype)
        mode = p.op1_mode
        if mode == OP1_V:
            vs1 = group(p.vs1, lmul, dtype)
        elif mode != OP1_F:
            raise ExecutionError(f"cannot fetch op1 for format {p.spec.fmt}")
        vd = group(p.vd, lmul, dtype)
        fn = p.aux
        fregs, frs1, scalar = self._fregs, p.frs1, dtype.type
        if not p.masked and isinstance(fn, np.ufunc):
            # Straight into vd: (vs2, vd[, vs1]) per vl.
            at, cut = _cuts(vs2, vd, *((vs1,) if mode == OP1_V else ()))
            vfile = self.state.v
            bump = p.vd == 0
            if mode == OP1_V:
                def run(p, vl, sew, lmul, at=at, cut=cut, fn=fn, bump=bump,
                        vfile=vfile):
                    b, d, a = at(vl) or cut(vl)
                    fn(b, a, d)
                    if bump:
                        vfile.v0_writes += 1
            else:
                def run(p, vl, sew, lmul, at=at, cut=cut, fn=fn, bump=bump,
                        vfile=vfile, scalar=scalar, fregs=fregs, frs1=frs1):
                    b, d = at(vl) or cut(vl)
                    fn(b, scalar(fregs[frs1]), d)
                    if bump:
                        vfile.v0_writes += 1
            return run
        write = self._writer(p.vd, vd, p.masked)
        if mode == OP1_V:
            def run(p, vl, sew, lmul, write=write, fn=fn, vs2=vs2, vs1=vs1):
                write(vl, fn(vs2[:vl], vs1[:vl]))
        else:
            def run(p, vl, sew, lmul, write=write, fn=fn, vs2=vs2,
                    scalar=scalar, fregs=fregs, frs1=frs1):
                write(vl, fn(vs2[:vl], scalar(fregs[frs1])))
        return run

    def _bind_slide1(self, p, sew, lmul):
        is_up, from_f = p.aux
        dtype = fp_dtype(sew) if from_f else int_dtype(sew)
        group = self._group
        vs2 = group(p.vs2, lmul, dtype)
        vd = group(p.vd, lmul, dtype)
        scalar = dtype.type
        if from_f:
            regs, index, bits = self._fregs, p.frs1, None
        else:  # the x-register value wraps to SEW bits, unsigned
            regs, index, bits = self._xregs, p.rs1, (1 << sew) - 1
        if p.masked:
            write = self._writer(p.vd, vd, True)
            slide = permute.slide1up if is_up else permute.slide1down

            def run(p, vl, sew, lmul, write=write, slide=slide, vs2=vs2,
                    scalar=scalar, regs=regs, index=index, bits=bits):
                value = regs[index] if bits is None else regs[index] & bits
                write(vl, slide(vs2[:vl], scalar(value), vl))
                return 1
            return run
        # In place: per vl, the part of vd the shift writes, the part of
        # vs2 it reads and the slot the scalar enters (vl = 0 moves no
        # element).
        views: dict = {}
        vfile = self.state.v
        bump = p.vd == 0

        def run(p, vl, sew, lmul, views=views, vd=vd, vs2=vs2, is_up=is_up,
                scalar=scalar, regs=regs, index=index, bits=bits, bump=bump,
                vfile=vfile):
            value = regs[index] if bits is None else regs[index] & bits
            if vl:
                cut = views.get(vl)
                if cut is None:
                    cut = views[vl] = (
                        (vd[1:vl], vs2[:vl - 1], 0) if is_up
                        else (vd[:vl - 1], vs2[1:vl], vl - 1))
                dest, src, slot = cut
                dest[...] = src
                vd[slot] = scalar(value)
            if bump:
                vfile.v0_writes += 1
            return 1
        return run

    def _bind_splat(self, p, sew, lmul):
        m = p.mnemonic
        dtype = fp_dtype(sew) if m == "vfmv_v_f" else int_dtype(sew)
        write = self._writer(p.vd, self._group(p.vd, lmul, dtype), p.masked)
        scalar = dtype.type
        if m == "vfmv_v_f":
            fregs, frs1 = self._fregs, p.frs1

            def run(p, vl, sew, lmul, write=write, scalar=scalar, fregs=fregs,
                    frs1=frs1):
                write(vl, scalar(fregs[frs1]))
        elif m == "vmv_v_x":  # the value wraps to SEW bits, unsigned
            xregs, rs1, bits = self._xregs, p.rs1, (1 << sew) - 1

            def run(p, vl, sew, lmul, write=write, scalar=scalar, xregs=xregs,
                    rs1=rs1, bits=bits):
                write(vl, scalar(xregs[rs1] & bits))
        else:  # vmv_v_i
            value = scalar(p.imm & ((1 << sew) - 1))

            def run(p, vl, sew, lmul, write=write, value=value):
                write(vl, value)
        return run

    def _bind_mem(self, p, sew, lmul):
        """Loads and stores of all four patterns.  A bound access
        returns its ``(base, stride, count, element bytes)``."""
        spec = p.spec
        pattern = spec.mem_pattern
        mem = self.mem
        xregs = self._xregs
        rs1 = p.rs1

        if pattern is _MASK:  # ceil(vl/8) bytes, EMUL=1, never masked
            if spec.is_load:
                write = self._writer(
                    p.vd, self.state.v._group_bytes(p.vd, 1), False)

                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, write=write,
                        mem=mem):
                    base = xregs[rs1] & _I64_MASK
                    count = (vl + 7) // 8
                    write(count, mem.read_bytes(base, count))
                    return base, 1, count, 1
            else:
                src = self.state.v._group_bytes(p.vs3, 1)

                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, mem=mem,
                        src=src):
                    base = xregs[rs1] & _I64_MASK
                    count = (vl + 7) // 8
                    mem.write_bytes(base, src[:count])
                    return base, 1, count, 1
            return run

        group = self._group
        masked = p.masked
        if pattern is _INDEXED:
            # The mnemonic width is the index EEW; data uses SEW.
            index_eew = p.aux
            index = group(p.vs2, index_eew * lmul // sew or 1,
                          _UNIT_DTYPES[index_eew // 8])
            ew = sew // 8
            dtype = _UNIT_DTYPES[ew]
            if spec.is_load:
                dest = group(p.vd, lmul, dtype)
                write = self._writer(p.vd, dest, False)
                if masked:
                    v0_mask = self._v0_mask

                    def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1,
                            index=index, v0_mask=v0_mask, dest=dest, mem=mem,
                            dtype=dtype, write=write, ew=ew):
                        base = xregs[rs1] & _I64_MASK
                        offsets = index[:vl].astype(np.int64)
                        mask = v0_mask(vl)
                        data = dest[:vl].copy()
                        data[mask] = mem.read_gather(base, offsets[mask],
                                                     dtype)
                        write(vl, data)
                        return base, 0, vl, ew
                else:
                    def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1,
                            index=index, write=write, mem=mem, dtype=dtype,
                            ew=ew):
                        base = xregs[rs1] & _I64_MASK
                        offsets = index[:vl].astype(np.int64)
                        write(vl, mem.read_gather(base, offsets, dtype))
                        return base, 0, vl, ew
            else:
                src = group(p.vs3, lmul, dtype)
                v0_mask = self._v0_mask

                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, index=index,
                        src=src, masked=masked, v0_mask=v0_mask, mem=mem,
                        ew=ew):
                    base = xregs[rs1] & _I64_MASK
                    offsets = index[:vl].astype(np.int64)
                    data = src[:vl]
                    if masked:
                        mask = v0_mask(vl)
                        offsets = offsets[mask]
                        data = data[mask]
                    mem.write_scatter(base, offsets, data)
                    return base, 0, vl, ew
            return run

        # Unit-stride and strided: the mnemonic width is the data EEW; a
        # fractional EMUL collapses to one register.
        eew = p.aux
        ew = eew // 8
        dtype = _UNIT_DTYPES[ew]
        emul = eew * lmul // sew or 1
        if spec.is_load:
            dest = group(p.vd, emul, dtype)
            if pattern is _UNIT and not masked:
                # One copy, memory to vd: the bytes of vd's first vl
                # elements, per vl.
                views: dict = {}
                read_into = mem.read_into
                vfile = self.state.v
                bump = p.vd == 0

                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, views=views,
                        dest=dest, read_into=read_into, bump=bump,
                        vfile=vfile, ew=ew):
                    base = xregs[rs1] & _I64_MASK
                    out = views.get(vl)
                    if out is None:
                        out = views[vl] = dest[:vl].view(np.uint8)
                    read_into(base, out)
                    if bump:
                        vfile.v0_writes += 1
                    return base, ew, vl, ew
                return run
            write = self._writer(p.vd, dest, masked)
            if pattern is _UNIT:
                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, write=write,
                        mem=mem, dtype=dtype, ew=ew):
                    base = xregs[rs1] & _I64_MASK
                    write(vl, mem.read_array(base, vl, dtype))
                    return base, ew, vl, ew
            else:
                rs2 = p.rs2

                def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, rs2=rs2,
                        write=write, mem=mem, dtype=dtype, ew=ew):
                    base = xregs[rs1] & _I64_MASK
                    stride = xregs[rs2]
                    write(vl, mem.read_strided(base, vl, stride, dtype))
                    return base, stride, vl, ew
            return run

        src = group(p.vs3, emul, dtype)
        v0_mask = self._v0_mask
        if pattern is _UNIT:
            def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, masked=masked,
                    v0_mask=v0_mask, mem=mem, ew=ew, src=src):
                base = xregs[rs1] & _I64_MASK
                if masked:
                    mask = v0_mask(vl)
                    mem.write_scatter(base, np.flatnonzero(mask) * ew,
                                      src[:vl][mask])
                else:
                    mem.write_array(base, src[:vl])
                return base, ew, vl, ew
        else:
            rs2 = p.rs2

            def run(p, vl, sew, lmul, xregs=xregs, rs1=rs1, rs2=rs2,
                    masked=masked, v0_mask=v0_mask, mem=mem, src=src, ew=ew):
                base = xregs[rs1] & _I64_MASK
                stride = xregs[rs2]
                if masked:
                    mask = v0_mask(vl)
                    offsets = np.flatnonzero(mask).astype(np.int64) * stride
                    mem.write_scatter(base, offsets, src[:vl][mask])
                else:
                    mem.write_strided(base, src[:vl], stride)
                return base, stride, vl, ew
        return run


#: vkind -> the plain function of its binder or handler, called with the
#: unit as its first argument (see ``VectorUnit.__init__``).
_BINDER_FNS = {kind: getattr(VectorUnit, name)
               for kind, name in VectorUnit._BINDERS.items()}
_HANDLER_FNS = {kind: getattr(VectorUnit, name)
                for kind, name in VectorUnit._HANDLERS.items()}
