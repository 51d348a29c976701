"""Byte-addressable functional memory backing the L2 model.

A flat NumPy ``uint8`` array with typed bulk accessors.  The paper assumes
an L2 of at least 16 MiB (Table I footnote); the default here is 32 MiB so
the largest weak-scaling problems fit with room for result buffers.
"""

from __future__ import annotations

import numpy as np

from ..errors import MemoryAccessError

DEFAULT_SIZE = 32 * 2 ** 20


class FunctionalMemory:
    """Flat little-endian memory starting at address 0."""

    def __init__(self, size_bytes: int = DEFAULT_SIZE) -> None:
        if size_bytes <= 0:
            raise MemoryAccessError("memory size must be positive")
        self.size = int(size_bytes)
        self._data = np.zeros(self.size, dtype=np.uint8)
        self._f64 = self._f64_view()
        #: Simple bump allocator cursor for test/kernel buffer placement.
        self._alloc_cursor = 0

    def _f64_view(self) -> memoryview:
        """float64 view of the aligned prefix: the fast path of the
        scalar core's fld/fsd, which dominate kernel inner loops.  A
        memoryview, whose items are Python floats, indexes about twice
        as fast as the NumPy array."""
        return memoryview(self._data[:self.size & ~7].view(np.float64))

    def __getstate__(self):
        # The f64 view aliases _data only in-process; rebuild on load
        # instead of pickling a detached copy.
        state = self.__dict__.copy()
        state.pop("_f64", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._f64 = self._f64_view()

    # ------------------------------------------------------------------
    # Allocation helper (keeps kernels free of magic addresses)
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes < 0:
            raise MemoryAccessError("cannot allocate a negative size")
        base = -(-self._alloc_cursor // align) * align
        end = base + nbytes
        if end > self.size:
            raise MemoryAccessError(
                f"out of memory: need {end} bytes, have {self.size}"
            )
        self._alloc_cursor = end
        return base

    def reset_allocator(self) -> None:
        self._alloc_cursor = 0

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryAccessError(
                f"access [{addr}, {addr + nbytes}) outside memory of {self.size} B"
            )

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        self._check(addr, nbytes)
        return self._data[addr:addr + nbytes].copy()

    def write_bytes(self, addr: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self._check(addr, data.size)
        self._data[addr:addr + data.size] = data

    # ------------------------------------------------------------------
    # Typed access
    # ------------------------------------------------------------------
    def read_array(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = count * dtype.itemsize
        self._check(addr, nbytes)
        return self._data[addr:addr + nbytes].view(dtype).copy()

    def read_into(self, addr: int, out: np.ndarray) -> None:
        """Copy the ``out.size`` bytes at ``addr`` into ``out``, a 1-D
        ``uint8`` array (one copy, where :meth:`read_array` makes one
        its caller then copies again)."""
        nbytes = out.size
        self._check(addr, nbytes)
        np.copyto(out, self._data[addr:addr + nbytes])

    def write_array(self, addr: int, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        nbytes = values.nbytes
        self._check(addr, nbytes)
        self._data[addr:addr + nbytes] = values.view(np.uint8).reshape(-1)

    def _byte_matrix(self, starts: np.ndarray, itemsize: int) -> np.ndarray:
        """Per-element byte index matrix with a single bounds check."""
        if starts.size == 0:
            return np.empty((0, itemsize), dtype=np.int64)
        lo = int(starts.min())
        hi = int(starts.max()) + itemsize
        if lo < 0 or hi > self.size:
            raise MemoryAccessError(
                f"access touching [{lo}, {hi}) outside memory of {self.size} B"
            )
        return starts[:, None] + np.arange(itemsize, dtype=np.int64)

    @staticmethod
    def _starts(base: int, offsets: np.ndarray) -> np.ndarray:
        """Element start addresses ``base + offsets`` (int64 offsets).

        An access that moves an element from a base past the int64
        range (a negative x register) is out of memory; one that moves
        none checks nothing."""
        if not offsets.size:
            return offsets
        if base >= 1 << 63:
            raise MemoryAccessError(
                f"access at base {base:#x} outside memory")
        return base + offsets

    @classmethod
    def _strided_starts(cls, addr: int, count: int,
                        stride: int) -> np.ndarray:
        return cls._starts(addr, stride * np.arange(count, dtype=np.int64))

    def read_strided(self, addr: int, count: int, stride: int,
                     dtype: np.dtype) -> np.ndarray:
        """Gather ``count`` elements spaced ``stride`` bytes apart."""
        dtype = np.dtype(dtype)
        starts = self._strided_starts(addr, count, stride)
        idx = self._byte_matrix(starts, dtype.itemsize)
        return np.ascontiguousarray(self._data[idx]).view(dtype).reshape(-1)

    def check_strided(self, addr: int, count: int, stride: int,
                      itemsize: int) -> None:
        """Raise as :meth:`read_strided` of ``count`` elements of
        ``itemsize`` bytes would, moving no data."""
        self._byte_matrix(self._strided_starts(addr, count, stride), itemsize)

    def write_strided(self, addr: int, values: np.ndarray, stride: int) -> None:
        values = np.ascontiguousarray(values)
        if values.size == 0:  # e.g. a masked store with no active elements
            return
        starts = self._strided_starts(addr, values.size, stride)
        idx = self._byte_matrix(starts, values.dtype.itemsize)
        self._data[idx] = values.view(np.uint8).reshape(values.size, -1)

    def read_gather(self, base: int, offsets: np.ndarray,
                    dtype: np.dtype) -> np.ndarray:
        """Indexed gather: element i at ``base + offsets[i]`` (byte offsets)."""
        dtype = np.dtype(dtype)
        starts = self._starts(base, np.asarray(offsets, dtype=np.int64))
        idx = self._byte_matrix(starts, dtype.itemsize)
        return np.ascontiguousarray(self._data[idx]).view(dtype).reshape(-1)

    def write_scatter(self, base: int, offsets: np.ndarray,
                      values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        if values.size == 0:  # e.g. a masked store with no active elements
            return
        starts = self._starts(base, np.asarray(offsets, dtype=np.int64))
        idx = self._byte_matrix(starts, values.dtype.itemsize)
        self._data[idx] = values.view(np.uint8).reshape(values.size, -1)

    # ------------------------------------------------------------------
    # Scalar access used by the CVA6 model
    # ------------------------------------------------------------------
    def load_int(self, addr: int, nbytes: int, signed: bool = True) -> int:
        raw = self.read_bytes(addr, nbytes)
        value = int.from_bytes(raw.tobytes(), "little", signed=signed)
        return value

    def store_int(self, addr: int, value: int, nbytes: int) -> None:
        mask = (1 << (8 * nbytes)) - 1
        raw = (value & mask).to_bytes(nbytes, "little")
        self.write_bytes(addr, np.frombuffer(raw, dtype=np.uint8))

    def load_f64(self, addr: int) -> float:
        if addr % 8 == 0 and 0 <= addr and addr + 8 <= self.size:
            return self._f64[addr >> 3]
        return float(self.read_array(addr, 1, np.float64)[0])

    def store_f64(self, addr: int, value: float) -> None:
        if addr % 8 == 0 and 0 <= addr and addr + 8 <= self.size:
            self._f64[addr >> 3] = value
            return
        self.write_array(addr, np.array([value], dtype=np.float64))

    def load_f32(self, addr: int) -> float:
        return float(self.read_array(addr, 1, np.float32)[0])

    def store_f32(self, addr: int, value: float) -> None:
        self.write_array(addr, np.array([value], dtype=np.float32))
