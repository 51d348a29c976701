"""The functional vector engine: RVV state handling + dispatch.

Fetches operands from the VRF, applies the pure semantics from
:mod:`repro.functional.vector_ops`, handles masking (mask-undisturbed) and
tail policy (tail-undisturbed, legal under agnosticism), and emits one
:class:`~repro.functional.trace.VectorEvent` per retired instruction.

Hot-path notes (this module runs once per retired vector instruction):

* dispatch, operand indices and semantic callables come pre-resolved from
  the instruction's :class:`~repro.functional.plan.InstrPlan` — no string
  splitting or operand-dict lookups here;
* VRF reads feeding pure computations use ``copy=False`` views (every
  semantic function allocates a fresh result before anything is written
  back, and register groups of equal EMUL are equal-or-disjoint);
* the ``v0`` mask is unpacked once and cached until ``v0`` is written
  (tracked by ``VectorRegFile.v0_writes``) or ``vl`` changes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ExecutionError
from ..isa.instructions import Instruction, MemPattern
from .memory import FunctionalMemory
from .plan import (InstrPlan, OP1_F, OP1_I, OP1_V, OP1_X, plan_for_instr)
from .state import ArchState, fp_dtype, int_dtype
from .trace import MemAccess, VectorEvent
from .vector_ops import mask as maskops, mem as memops, permute


#: Handler return value for instructions with no memory access / slide.
_NO_EXTRA = (None, 0)

_UNIT_DTYPES = {1: np.dtype("u1"), 2: np.dtype("u2"),
                4: np.dtype("u4"), 8: np.dtype("u8")}


def _widen_fp(values, wide: np.dtype) -> np.ndarray:
    """FP elements converted to ``wide``; a signaling NaN converts to a
    quiet one by definition, so the cast's invalid flag stays silent."""
    with np.errstate(invalid="ignore"):
        return np.asarray(values, dtype=wide)


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

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, instr: Instruction) -> VectorEvent:
        """Decode-on-the-fly single-instruction path (tests, tools)."""
        return self.execute_plan(plan_for_instr(instr))

    def execute_plan(self, p: InstrPlan) -> VectorEvent:
        state = self.state
        state.require_legal_vtype()
        vl = state.vl
        sew = state.sew_bits
        lmul = state.lmul_i
        mask_bits = self._v0_mask(vl) if p.masked else None
        mem_access, slide_amount = self._dispatch[p.vkind](
            p, vl, sew, lmul, mask_bits)
        return VectorEvent(p.instr, vl, sew, lmul, mem_access, slide_amount)

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
        return _NO_EXTRA

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
        return _NO_EXTRA

    def _h_mv_sx(self, p, vl, sew, lmul, mask_bits):
        self.state.v.write_elems(
            p.vd,
            self._splat_int(self.state.x.read(p.rs1), int_dtype(sew), 1),
            emul=1)
        return _NO_EXTRA

    def _h_mv_xs(self, p, vl, sew, lmul, mask_bits):
        value = self.state.v.read_elems(
            p.vs2, 1, int_dtype(sew, signed=True), 1, copy=False)[0]
        self.state.x.write(p.rd, int(value))
        return _NO_EXTRA

    def _h_fmv_sf(self, p, vl, sew, lmul, mask_bits):
        self.state.v.write_elems(
            p.vd,
            np.array([self.state.f.read(p.frs1)], dtype=fp_dtype(sew)),
            emul=1)
        return _NO_EXTRA

    def _h_fmv_fs(self, p, vl, sew, lmul, mask_bits):
        value = self.state.v.read_elems(
            p.vs2, 1, fp_dtype(sew), 1, copy=False)[0]
        self.state.f.write(p.frd, float(value))
        return _NO_EXTRA

    def _h_merge(self, p, vl, sew, lmul, mask_bits):
        # Merges read v0 as selector regardless of `masked`.
        selector = self._v0_mask(vl)
        dtype = fp_dtype(sew) if p.aux else int_dtype(sew)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        result = np.where(selector, op1, vs2).astype(dtype)
        self.state.v.write_elems(p.vd, result, lmul, None)
        return _NO_EXTRA

    # ------------------------------------------------------------------
    # Integer element-wise
    # ------------------------------------------------------------------
    def _h_int_fma(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        with np.errstate(over="ignore"):
            result = p.aux(vd, op1, vs2).astype(dtype)
        v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    def _h_int_widen(self, p, vl, sew, lmul, mask_bits):
        narrow = int_dtype(sew, signed=True)
        wide = int_dtype(2 * sew, signed=True)
        vs2 = self.state.v.read_elems(
            p.vs2, vl, narrow, lmul, copy=False).astype(wide)
        op1 = self._fetch_op1(p, vl, narrow).astype(wide)
        result = p.aux(vs2, op1).astype(wide)
        self.state.v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return _NO_EXTRA

    def _h_int_narrow(self, p, vl, sew, lmul, mask_bits):  # vnsrl
        wide_u = int_dtype(2 * sew)
        vs2 = self.state.v.read_elems(
            p.vs2, vl, wide_u, 2 * lmul, copy=False)
        op1 = self._fetch_op1(p, vl, wide_u)
        shift = (op1.astype(np.uint64) & np.uint64(2 * sew - 1)) \
            .astype(wide_u)
        result = np.right_shift(vs2, shift).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    def _h_int_bin(self, p, vl, sew, lmul, mask_bits):
        op = p.aux
        dtype = int_dtype(sew, signed=op.signed)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        with np.errstate(over="ignore"):
            result = op.func(vs2, op1).astype(dtype)
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    # ------------------------------------------------------------------
    # Floating-point element-wise
    # ------------------------------------------------------------------
    def _h_fp_unary(self, p, vl, sew, lmul, mask_bits):
        vs2 = self.state.v.read_elems(
            p.vs2, vl, fp_dtype(sew), lmul, copy=False)
        self.state.v.write_elems(p.vd, p.aux(vs2), lmul, mask_bits)
        return _NO_EXTRA

    def _h_fp_fma(self, p, vl, sew, lmul, mask_bits):
        dtype = fp_dtype(sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        v.write_elems(p.vd, p.aux(vd, op1, vs2), lmul, mask_bits)
        return _NO_EXTRA

    def _h_fp_fma_w(self, p, vl, sew, lmul, mask_bits):  # vfwmacc
        wide = fp_dtype(2 * sew)
        v = self.state.v
        vd = v.read_elems(p.vd, vl, wide, 2 * lmul, copy=False)
        op1 = _widen_fp(self._fetch_op1(p, vl, fp_dtype(sew)), wide)
        vs2 = _widen_fp(
            v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False), wide)
        result = p.aux(vd, op1, vs2)
        v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return _NO_EXTRA

    def _h_fp_widen(self, p, vl, sew, lmul, mask_bits):  # vfwadd/vfwmul
        wide = fp_dtype(2 * sew)
        vs2 = _widen_fp(self.state.v.read_elems(
            p.vs2, vl, fp_dtype(sew), lmul, copy=False), wide)
        op1 = _widen_fp(self._fetch_op1(p, vl, fp_dtype(sew)), wide)
        result = p.aux(vs2, op1)
        self.state.v.write_elems(p.vd, result, 2 * lmul, mask_bits)
        return _NO_EXTRA

    def _h_fp_bin(self, p, vl, sew, lmul, mask_bits):
        dtype = fp_dtype(sew)
        vs2 = self.state.v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        op1 = self._fetch_op1(p, vl, dtype)
        result = np.asarray(p.aux(vs2, op1), dtype=dtype)
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    def _h_fp_cvt(self, p, vl, sew, lmul, mask_bits):
        mnem = p.mnemonic
        v = self.state.v
        if mnem == "vfcvt_x_f_v":
            vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False)
            result = np.rint(vs2).astype(int_dtype(sew, signed=True))
            v.write_elems(p.vd, result, lmul, mask_bits)
        elif mnem == "vfcvt_rtz_x_f_v":
            vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False)
            result = np.trunc(vs2).astype(int_dtype(sew, signed=True))
            v.write_elems(p.vd, result, lmul, mask_bits)
        elif mnem == "vfcvt_f_x_v":
            vs2 = v.read_elems(
                p.vs2, vl, int_dtype(sew, signed=True), lmul, copy=False)
            v.write_elems(p.vd, vs2.astype(fp_dtype(sew)), lmul, mask_bits)
        elif mnem == "vfwcvt_f_f_v":
            vs2 = v.read_elems(p.vs2, vl, fp_dtype(sew), lmul, copy=False)
            v.write_elems(p.vd, _widen_fp(vs2, fp_dtype(2 * sew)), 2 * lmul,
                          mask_bits)
        elif mnem == "vfncvt_f_f_w":
            vs2 = v.read_elems(
                p.vs2, vl, fp_dtype(2 * sew), 2 * lmul, copy=False)
            with np.errstate(over="ignore", invalid="ignore"):  # to ±inf
                narrow = vs2.astype(fp_dtype(sew))
            v.write_elems(p.vd, narrow, lmul, mask_bits)
        else:  # pragma: no cover
            raise ExecutionError(f"unhandled conversion {mnem}")
        return _NO_EXTRA

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
        return _NO_EXTRA

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
        return _NO_EXTRA

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
        return None, offset

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
        return None, 1

    def _h_rgather(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        vlmax = self.state.vlen_bits * lmul // sew
        v = self.state.v
        vs2_full = v.read_elems(p.vs2, vlmax, dtype, lmul, copy=False)
        indices = v.read_elems(p.vs1, vl, dtype, lmul, copy=False)
        result = permute.rgather(vs2_full, indices, vlmax)
        v.write_elems(p.vd, result, lmul, mask_bits)
        return None, 0

    def _h_compress(self, p, vl, sew, lmul, mask_bits):
        dtype = int_dtype(sew)
        v = self.state.v
        select = v.read_mask(p.vs1, vl)
        vs2 = v.read_elems(p.vs2, vl, dtype, lmul, copy=False)
        dest = v.read_elems(p.vd, vl, dtype, lmul, copy=False)
        result = permute.compress(vs2, select, dest)
        v.write_elems(p.vd, result, lmul)
        return None, 0

    # ------------------------------------------------------------------
    # Mask unit
    # ------------------------------------------------------------------
    def _h_mask_log(self, p, vl, sew, lmul, mask_bits):
        v = self.state.v
        a = v.read_mask(p.vs2, vl)
        b = v.read_mask(p.vs1, vl)
        v.write_mask(p.vd, p.aux(a, b))
        return _NO_EXTRA

    def _h_mask_scalar(self, p, vl, sew, lmul, mask_bits):  # vcpop/vfirst
        bits = self.state.v.read_mask(p.vs2, vl)
        if mask_bits is not None:
            bits = bits & mask_bits
        self.state.x.write(p.rd, p.aux(bits))
        return _NO_EXTRA

    def _h_m_unary(self, p, vl, sew, lmul, mask_bits):
        v = self.state.v
        bits = v.read_mask(p.vs2, vl)
        result = p.aux(bits)
        if mask_bits is not None:
            old = v.read_mask(p.vd, vl)
            result = np.where(mask_bits, result, old)
        v.write_mask(p.vd, result)
        return _NO_EXTRA

    def _h_iota(self, p, vl, sew, lmul, mask_bits):
        bits = self.state.v.read_mask(p.vs2, vl)
        if mask_bits is not None:
            bits = bits & mask_bits
        result = maskops.iota(bits).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    def _h_vid(self, p, vl, sew, lmul, mask_bits):
        result = np.arange(vl, dtype=np.int64).astype(int_dtype(sew))
        self.state.v.write_elems(p.vd, result, lmul, mask_bits)
        return _NO_EXTRA

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _h_mem(self, p, vl, sew, lmul, mask_bits):
        spec = p.spec
        pattern = spec.mem_pattern
        shape = memops.data_shape(p.mnemonic, pattern, vl, sew, lmul)
        base = self.state.x.read_unsigned(p.rs1)
        dtype = _UNIT_DTYPES[shape.ew_bytes]
        vfile = self.state.v

        if pattern is MemPattern.MASK:
            if spec.is_load:
                raw = self.mem.read_bytes(base, shape.count)
                view = vfile._group_bytes(p.vd, 1)
                if p.vd == 0:
                    vfile.v0_writes += 1
                view[:shape.count] = raw
            else:
                view = vfile._group_bytes(p.vs3, 1)
                self.mem.write_bytes(base, view[:shape.count])
            return (MemAccess(base, 1, shape.count, 1, pattern,
                              spec.is_store), 0)

        if pattern is MemPattern.UNIT:
            stride = shape.ew_bytes
            if spec.is_load:
                data = self.mem.read_array(base, vl, dtype)
                vfile.write_elems(p.vd, data, shape.emul, mask_bits)
            else:
                data = vfile.read_elems(p.vs3, vl, dtype, shape.emul,
                                        copy=False)
                if mask_bits is None:
                    self.mem.write_array(base, data)
                else:
                    offsets = np.flatnonzero(mask_bits) * stride
                    self.mem.write_scatter(base, offsets, data[mask_bits])
            return (MemAccess(base, stride, vl, shape.ew_bytes, pattern,
                              spec.is_store), 0)

        if pattern is MemPattern.STRIDED:
            stride = self.state.x.read(p.rs2)
            if spec.is_load:
                data = self.mem.read_strided(base, vl, stride, dtype)
                vfile.write_elems(p.vd, data, shape.emul, mask_bits)
            else:
                data = vfile.read_elems(p.vs3, vl, dtype, shape.emul,
                                        copy=False)
                if mask_bits is None:
                    self.mem.write_strided(base, data, stride)
                else:
                    offsets = np.flatnonzero(mask_bits).astype(np.int64) \
                        * stride
                    self.mem.write_scatter(base, offsets, data[mask_bits])
            return (MemAccess(base, stride, vl, shape.ew_bytes, pattern,
                              spec.is_store), 0)

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
        return (MemAccess(base, 0, vl, sew // 8, pattern, spec.is_store), 0)
