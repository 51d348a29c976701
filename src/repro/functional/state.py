"""Architectural state: scalar register files, VRF, vector CSRs.

The vector register file is stored exactly as the ISA sees it: a flat byte
array of 32 registers of VLEN bits each.  Register groups (LMUL > 1) are
contiguous because RVV requires group bases to be LMUL-aligned, so typed
views over groups are zero-copy NumPy views.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError, IllegalInstructionError
from ..isa.vtype import VType

_I64_MASK = (1 << 64) - 1

# Cached np.dtype singletons: the interpreter resolves a dtype per retired
# instruction, so these lookups must not construct a fresh np.dtype object
# each time (np.dtype(...) is measurably slower than a dict hit).
_SEW_DTYPES = {
    (8, False): np.dtype(np.uint8), (8, True): np.dtype(np.int8),
    (16, False): np.dtype(np.uint16), (16, True): np.dtype(np.int16),
    (32, False): np.dtype(np.uint32), (32, True): np.dtype(np.int32),
    (64, False): np.dtype(np.uint64), (64, True): np.dtype(np.int64),
}
_FP_DTYPES = {32: np.dtype(np.float32), 64: np.dtype(np.float64)}


def int_dtype(sew: int, signed: bool = False) -> np.dtype:
    """NumPy integer dtype for one SEW (raises on unsupported widths)."""
    try:
        return _SEW_DTYPES[(sew, signed)]
    except KeyError:
        raise IllegalInstructionError(f"no integer dtype for SEW={sew}") from None


def fp_dtype(sew: int) -> np.dtype:
    """NumPy float dtype for one SEW (FP supports 32/64 only)."""
    try:
        return _FP_DTYPES[sew]
    except KeyError:
        raise IllegalInstructionError(
            f"FP operations require SEW 32 or 64, got {sew}"
        ) from None


class ScalarRegs:
    """Integer register file; x0 reads as zero and ignores writes."""

    def __init__(self) -> None:
        #: The signed register values.  Writes to x0 are dropped, so
        #: ``regs[i]`` equals ``read(i)`` for every ``i``; hot paths hold
        #: the list and index it.
        self.regs = [0] * 32

    def read(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write(self, index: int, value: int) -> None:
        if index:
            value &= _I64_MASK
            if value >= 1 << 63:
                value -= 1 << 64
            self.regs[index] = value

    def read_unsigned(self, index: int) -> int:
        return self.read(index) & _I64_MASK

    def snapshot(self) -> list[int]:
        return list(self.regs)


class FpRegs:
    """Floating-point register file holding float64 values.

    Backed by a plain Python list of floats, ``regs``: the interpreter
    reads f-registers on every scalar-operand vector instruction, and
    list indexing is much cheaper than NumPy scalar extraction.
    """

    def __init__(self) -> None:
        self.regs = [0.0] * 32

    def read(self, index: int) -> float:
        return self.regs[index]

    def write(self, index: int, value: float) -> None:
        self.regs[index] = float(value)

    def snapshot(self) -> np.ndarray:
        return np.array(self.regs, dtype=np.float64)


class VectorRegFile:
    """32 vector registers of ``vlen_bits`` each, byte-backed."""

    def __init__(self, vlen_bits: int) -> None:
        if vlen_bits % 64:
            raise ExecutionError("VLEN must be a multiple of 64 bits")
        self.vlen_bits = vlen_bits
        self.vlen_bytes = vlen_bits // 8
        self._data = np.zeros(32 * self.vlen_bytes, dtype=np.uint8)
        #: Bumped on every write that can touch v0; consumers (the vector
        #: unit's mask cache) key cached v0-derived data on this counter.
        #: Any register group containing v0 must start at v0 (groups are
        #: EMUL-aligned), so checking ``base == 0`` is sufficient.
        self.v0_writes = 0
        #: Typed zero-copy views of register groups, keyed by
        #: (base, emul, dtype).  The backing buffer never moves, so views
        #: stay valid for the life of the register file; legality checks
        #: run once per distinct key in :meth:`_group_bytes`.
        self._view_cache: dict = {}

    def _group_bytes(self, base: int, emul: int) -> np.ndarray:
        """Byte view of an EMUL-register group (zero-copy)."""
        if not 0 <= base < 32:
            raise IllegalInstructionError(f"v{base} out of range")
        emul = max(1, emul)
        if base % emul:
            raise IllegalInstructionError(
                f"v{base} not aligned to EMUL={emul} register group"
            )
        if base + emul > 32:
            raise IllegalInstructionError(
                f"group v{base}..v{base + emul - 1} exceeds the register file"
            )
        start = base * self.vlen_bytes
        return self._data[start:start + emul * self.vlen_bytes]

    def __getstate__(self):
        # Views alias _data only within one process; pickling them would
        # rehydrate detached copies that silently miss register updates.
        state = self.__dict__.copy()
        state["_view_cache"] = {}
        return state

    def typed_view(self, base: int, emul: int, dtype: np.dtype) -> np.ndarray:
        """Cached zero-copy ``dtype`` view of an EMUL-register group
        (``emul`` >= 1), whose legality :meth:`_group_bytes` checked."""
        key = (base, emul, dtype)
        view = self._view_cache.get(key)
        if view is None:
            view = self._group_bytes(base, emul).view(dtype)
            self._view_cache[key] = view
        return view

    def read_elems(self, base: int, vl: int, dtype: np.dtype,
                   emul: int = 1, copy: bool = True) -> np.ndarray:
        """First ``vl`` elements of a register group.

        By default returns a defensive copy.  Pass ``copy=False`` for
        read-only consumers (the interpreter's arithmetic paths, which
        always allocate a fresh result before writing back): the returned
        array is then a zero-copy view of the register file and must not
        be mutated or held across a register write.
        """
        view = self.typed_view(base, max(1, emul), np.dtype(dtype))
        if vl > view.size:
            raise IllegalInstructionError(
                f"vl={vl} exceeds group capacity {view.size} for v{base}"
            )
        return view[:vl].copy() if copy else view[:vl]

    def write_elems(self, base: int, values: np.ndarray, emul: int = 1,
                    mask: np.ndarray | None = None) -> None:
        """Write elements 0..len(values); tail elements are undisturbed.

        ``mask`` (bool per element) implements mask-undisturbed policy:
        inactive destination elements keep their previous value.
        """
        values = np.ascontiguousarray(values)
        view = self.typed_view(base, max(1, emul), values.dtype)
        if values.size > view.size:
            raise IllegalInstructionError(
                f"writing {values.size} elements into group capacity {view.size}"
            )
        if base == 0:
            self.v0_writes += 1
        if mask is None:
            view[:values.size] = values
        else:
            np.copyto(view[:values.size], values, where=mask)

    # ------------------------------------------------------------------
    # Mask register layout: bit i of v0 (RVV 1.0 mask layout)
    # ------------------------------------------------------------------
    def read_mask(self, reg: int, vl: int) -> np.ndarray:
        """Mask bits 0..vl-1 of ``reg`` as a boolean array."""
        nbytes = (vl + 7) // 8
        raw = self._group_bytes(reg, 1)[:nbytes]
        return np.unpackbits(raw, bitorder="little")[:vl].astype(bool)

    def write_mask(self, reg: int, bits: np.ndarray) -> None:
        """Write mask bits 0..len(bits)-1; tail bits undisturbed."""
        if reg == 0:
            self.v0_writes += 1
        bits = np.asarray(bits, dtype=bool)
        vl = bits.size
        nbytes = (vl + 7) // 8
        view = self._group_bytes(reg, 1)
        packed = np.packbits(bits, bitorder="little")
        if vl % 8:
            # Merge the partial last byte with existing tail bits.
            keep = view[nbytes - 1] & np.uint8((0xFF << (vl % 8)) & 0xFF)
            packed[-1] |= keep
        view[:nbytes] = packed

    def raw_register(self, reg: int) -> np.ndarray:
        """Whole-register byte copy (for tests and reshuffle modelling)."""
        return self._group_bytes(reg, 1).copy()


class ArchState:
    """Complete architectural state of the scalar core + vector unit."""

    def __init__(self, vlen_bits: int) -> None:
        self.x = ScalarRegs()
        self.f = FpRegs()
        self.v = VectorRegFile(vlen_bits)
        #: Integer mirrors of the current vtype's SEW/LMUL, refreshed by
        #: the ``vtype`` setter so the per-instruction hot path never
        #: converts the IntEnum fields.
        self.sew_bits = 64
        self.lmul_i = 1
        self.vtype = VType(vill=True)  # reset state: vill set, vl = 0
        self.vl = 0
        self.pc = 0

    @property
    def vtype(self) -> VType:
        return self._vtype

    @vtype.setter
    def vtype(self, value: VType) -> None:
        self._vtype = value
        if not value.vill:
            self.sew_bits = int(value.sew)
            self.lmul_i = int(value.lmul)

    @property
    def vlen_bits(self) -> int:
        return self.v.vlen_bits

    def require_legal_vtype(self) -> VType:
        """The current vtype; raises when it is ``vill``, or when ``vl``
        exceeds its VLMAX (only a state set outside ``vsetvli`` can), so
        ``vl`` elements fit every register group an op may access."""
        if self._vtype.vill:
            raise IllegalInstructionError(
                "vector instruction executed with vill set (no vsetvli yet?)"
            )
        vlmax = self.vlen_bits * self.lmul_i // self.sew_bits
        if self.vl > vlmax:
            raise IllegalInstructionError(
                f"vl={self.vl} exceeds VLMAX={vlmax}")
        return self._vtype
