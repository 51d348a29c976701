"""The functional vector engine: RVV state handling + dispatch.

Fetches operands from the VRF, applies the pure semantics from
:mod:`repro.functional.vector_ops`, and handles masking (mask-undisturbed)
and tail policy (tail-undisturbed, legal under agnosticism).  Each
handler returns the trace fields the instruction adds to its dynamic
configuration — a memory access's ``(base, stride, count, element
bytes)``, a slide's amount, else ``None`` — which the executor appends
to the trace columns and :meth:`VectorUnit.execute` wraps in a
:class:`~repro.functional.trace.VectorEvent`.

Hot-path notes (this module runs once per retired vector instruction):

* dispatch, operand indices and semantic callables come pre-resolved from
  the instruction's :class:`~repro.functional.plan.InstrPlan` — no string
  splitting or operand-dict lookups here;
* VRF reads feeding pure computations use ``copy=False`` views (every
  semantic function allocates a fresh result before anything is written
  back, and register groups of equal EMUL are equal-or-disjoint);
* the ``v0`` mask is unpacked once and cached until ``v0`` is written
  (tracked by ``VectorRegFile.v0_writes``) or ``vl`` changes;
* handlers run inside one :meth:`VectorUnit.ieee_errors` scope per
  executor run instead of entering ``np.errstate`` per FP operation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..errors import ExecutionError
from ..isa.instructions import Instruction, MemPattern
from .memory import FunctionalMemory
from .plan import (InstrPlan, OP1_F, OP1_I, OP1_V, OP1_X, plan_for_instr)
from .state import ArchState, fp_dtype, int_dtype
from .trace import MemAccess, VectorEvent
from .vector_ops import mask as maskops, mem as memops, permute


_UNIT_DTYPES = {1: np.dtype("u1"), 2: np.dtype("u2"),
                4: np.dtype("u4"), 8: np.dtype("u8")}

#: NumPy error state of vector FP arithmetic: overflow to ±inf, invalid
#: operations yielding NaN and division by zero are the defined
#: IEEE-754 results, not errors.
IEEE_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def vector_event(p: InstrPlan, vl: int, sew: int, lmul: int,
                 extra) -> VectorEvent:
    """The :class:`VectorEvent` of one execution of ``p`` at ``(vl, sew,
    lmul)`` from its handler's ``extra`` fields."""
    if extra is None:
        return VectorEvent(p.instr, vl, sew, lmul)
    if p.vkind == "mem":
        base, stride, count, ew = extra
        spec = p.spec
        return VectorEvent(p.instr, vl, sew, lmul, MemAccess(
            base, stride, count, ew, spec.mem_pattern, spec.is_store))
    return VectorEvent(p.instr, vl, sew, lmul, None, extra)


class VectorUnit:
    """Executes one vector instruction against the architectural state."""

    #: vkind -> handler method name; bound into a dict per instance.
    _HANDLERS = {
        "mem": "_h_mem",
        "red": "_h_reduction",
        "slide_updn": "_h_slide_updn",
        "slide1": "_h_slide1",
        "rgather": "_h_rgather",
        "compress": "_h_compress",
        "mask_log": "_h_mask_log",
        "mask_scalar": "_h_mask_scalar",
        "m_unary": "_h_m_unary",
        "iota": "_h_iota",
        "vid": "_h_vid",
        "cmp": "_h_compare",
        "mv_vv": "_h_mv_vv",
        "splat": "_h_splat",
        "mv_sx": "_h_mv_sx",
        "mv_xs": "_h_mv_xs",
        "fmv_sf": "_h_fmv_sf",
        "fmv_fs": "_h_fmv_fs",
        "merge": "_h_merge",
        "fp_unary": "_h_fp_unary",
        "fp_cvt": "_h_fp_cvt",
        "fp_fma": "_h_fp_fma",
        "fp_fma_w": "_h_fp_fma_w",
        "fp_widen": "_h_fp_widen",
        "fp_bin": "_h_fp_bin",
        "int_fma": "_h_int_fma",
        "int_widen": "_h_int_widen",
        "int_narrow": "_h_int_narrow",
        "int_bin": "_h_int_bin",
    }

    def __init__(self, state: ArchState, mem: FunctionalMemory) -> None:
        self.state = state
        self.mem = mem
        self._dispatch = {k: getattr(self, name)
                          for k, name in self._HANDLERS.items()}
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

    def execute(self, instr: Instruction) -> VectorEvent:
        """Decode-on-the-fly single-instruction path (tests, tools)."""
        p = plan_for_instr(instr)
        state = self.state
        state.require_legal_vtype()
        vl, sew, lmul = state.vl, state.sew_bits, state.lmul_i
        with self.ieee_errors():
            extra = self.execute_plan(p, vl, sew, lmul)
        return vector_event(p, vl, sew, lmul, extra)

    def execute_plan(self, p: InstrPlan, vl: int, sew: int, lmul: int):
        """Execute ``p`` at the given configuration inside an
        :meth:`ieee_errors` scope; returns the handler's trace fields
        (see the module docstring)."""
        return self._dispatch[p.vkind](
            p, vl, sew, lmul, self._v0_mask(vl) if p.masked else None)

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

    def _h_splat(self, p, vl, sew, lmul, mask_bits):
        m = p.mnemonic
        if m == "vfmv_v_f":
            value = np.full(vl, self.state.f.read(p.frs1),
                            dtype=fp_dtype(sew))
        elif m == "vmv_v_x":
            value = self._splat_int(self.state.x.read(p.rs1),
                                    int_dtype(sew), vl)
        else:  # vmv_v_i
            value = self._splat_int(p.imm, int_dtype(sew), vl)
        self.state.v.write_elems(p.vd, value, lmul, mask_bits)
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

    def _h_fp_fma(self, p, vl, sew, lmul, mask_bits):
        dtype = fp_dtype(sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        v.write_elems(p.vd, p.aux(vd, op1, vs2), lmul, mask_bits)
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

    def _h_fp_bin(self, p, vl, sew, lmul, mask_bits):
        dtype = fp_dtype(sew)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        result = np.asarray(p.aux(vs2, op1), dtype=dtype)
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
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

    def _h_slide1(self, p, vl, sew, lmul, mask_bits):
        is_up, from_f = p.aux
        dtype = fp_dtype(sew) if from_f else int_dtype(sew)
        if from_f:
            scalar = dtype.type(self.state.f.read(p.frs1))
        else:
            raw = self.state.x.read(p.rs1)
            scalar = self._splat_int(raw, int_dtype(sew), 1).view(dtype)[0]
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        if is_up:
            result = permute.slide1up(vs2, scalar, vl)
        else:
            result = permute.slide1down(vs2, scalar, vl)
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return 1

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
    # Memory
    # ------------------------------------------------------------------
    def _h_mem(self, p, vl, sew, lmul, mask_bits):
        spec = p.spec
        pattern = spec.mem_pattern
        ew_bytes, emul, count = memops.data_shape(p.aux, pattern, vl, sew,
                                                  lmul)
        base = self.state.x.read_unsigned(p.rs1)
        dtype = _UNIT_DTYPES[ew_bytes]
        vfile = self.state.v

        if pattern is MemPattern.MASK:
            if spec.is_load:
                raw = self.mem.read_bytes(base, count)
                view = vfile._group_bytes(p.vd, 1)
                if p.vd == 0:
                    vfile.v0_writes += 1
                view[:count] = raw
            else:
                view = vfile._group_bytes(p.vs3, 1)
                self.mem.write_bytes(base, view[:count])
            return base, 1, count, 1

        if pattern is MemPattern.UNIT:
            stride = ew_bytes
            if spec.is_load:
                data = self.mem.read_array(base, vl, dtype)
                vfile.write_elems(p.vd, data, emul, mask_bits)
            else:
                data = vfile.read_elems(p.vs3, vl, dtype, emul,
                                        copy=False)
                if mask_bits is None:
                    self.mem.write_array(base, data)
                else:
                    offsets = np.flatnonzero(mask_bits) * stride
                    self.mem.write_scatter(base, offsets, data[mask_bits])
            return base, stride, vl, ew_bytes

        if pattern is MemPattern.STRIDED:
            stride = self.state.x.read(p.rs2)
            if spec.is_load:
                data = self.mem.read_strided(base, vl, stride, dtype)
                vfile.write_elems(p.vd, data, emul, mask_bits)
            else:
                data = vfile.read_elems(p.vs3, vl, dtype, emul,
                                        copy=False)
                if mask_bits is None:
                    self.mem.write_strided(base, data, stride)
                else:
                    offsets = np.flatnonzero(mask_bits).astype(np.int64) \
                        * stride
                    self.mem.write_scatter(base, offsets, data[mask_bits])
            return base, stride, vl, ew_bytes

        # Indexed: mnemonic width is the index EEW; data uses SEW.
        index_eew = p.aux
        index_emul = max(1, index_eew * lmul // sew)
        offsets = vfile.read_elems(
            p.vs2, vl, _UNIT_DTYPES[index_eew // 8], index_emul,
            copy=False).astype(np.int64)
        data_dtype = _UNIT_DTYPES[sew // 8]
        if spec.is_load:
            if mask_bits is None:
                data = self.mem.read_gather(base, offsets, data_dtype)
                vfile.write_elems(p.vd, data, lmul, None)
            else:
                dest = vfile.read_elems(p.vd, vl, data_dtype, lmul)
                active = self.mem.read_gather(
                    base, offsets[mask_bits], data_dtype)
                dest[mask_bits] = active
                vfile.write_elems(p.vd, dest, lmul)
        else:
            data = vfile.read_elems(p.vs3, vl, data_dtype, lmul, copy=False)
            if mask_bits is not None:
                offsets = offsets[mask_bits]
                data = data[mask_bits]
            self.mem.write_scatter(base, offsets, data)
        return base, 0, vl, sew // 8
