"""Functional memory: typed access, strided/gather paths, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.functional.memory import FunctionalMemory


@pytest.fixture
def mem():
    return FunctionalMemory(1 << 16)


class TestTypedAccess:
    def test_array_roundtrip(self, mem):
        data = np.arange(100, dtype=np.float64)
        mem.write_array(128, data)
        assert np.array_equal(mem.read_array(128, 100, np.float64), data)

    @given(st.integers(min_value=-2**63, max_value=2**63 - 1))
    @settings(max_examples=50)
    def test_int_roundtrip(self, value):
        mem = FunctionalMemory(64)
        mem.store_int(0, value, 8)
        assert mem.load_int(0, 8, signed=True) == value

    def test_f64_roundtrip(self, mem):
        mem.store_f64(8, 3.25)
        assert mem.load_f64(8) == 3.25

    def test_f32_roundtrip(self, mem):
        mem.store_f32(4, -1.5)
        assert mem.load_f32(4) == -1.5

    def test_little_endian(self, mem):
        mem.store_int(0, 0x0102030405060708, 8)
        assert mem.read_bytes(0, 1)[0] == 0x08


class TestBounds:
    def test_read_past_end(self, mem):
        with pytest.raises(MemoryAccessError):
            mem.read_bytes(mem.size - 4, 8)

    def test_negative_address(self, mem):
        with pytest.raises(MemoryAccessError):
            mem.read_bytes(-1, 4)

    def test_strided_bounds_checked(self, mem):
        with pytest.raises(MemoryAccessError):
            mem.read_strided(mem.size - 16, 4, 8, np.float64)

    @pytest.mark.parametrize("base", [1 << 63, (1 << 64) - 64])
    def test_base_beyond_int64(self, mem, base):
        """A base past the int64 range (a negative x register) is out
        of memory for an access that moves an element, and checks
        nothing for one that moves none."""
        offsets = np.array([0, 8], dtype=np.int64)
        accesses = [
            lambda n: mem.read_strided(base, n, 8, np.float64),
            lambda n: mem.check_strided(base, n, 8, 8),
            lambda n: mem.write_strided(base, np.zeros(n), 8),
            lambda n: mem.read_gather(base, offsets[:n], np.float64),
            lambda n: mem.write_scatter(base, offsets[:n], np.zeros(n)),
        ]
        for access in accesses:
            with pytest.raises(MemoryAccessError):
                access(2)
            access(0)

    def test_zero_size_memory_rejected(self):
        with pytest.raises(MemoryAccessError):
            FunctionalMemory(0)


class TestStrided:
    def test_read_strided_matches_manual(self, mem):
        data = np.arange(64, dtype=np.float64)
        mem.write_array(0, data)
        got = mem.read_strided(0, 8, 24, np.float64)  # every 3rd element
        assert np.array_equal(got, data[::3][:8])

    def test_negative_stride(self, mem):
        data = np.arange(16, dtype=np.float64)
        mem.write_array(0, data)
        got = mem.read_strided(15 * 8, 16, -8, np.float64)
        assert np.array_equal(got, data[::-1])

    def test_write_strided(self, mem):
        mem.write_strided(0, np.array([1.0, 2.0, 3.0]), 16)
        assert mem.load_f64(0) == 1.0
        assert mem.load_f64(16) == 2.0
        assert mem.load_f64(32) == 3.0

    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=8, max_value=64).map(lambda s: s // 8 * 8))
    @settings(max_examples=30)
    def test_strided_roundtrip(self, count, stride):
        mem = FunctionalMemory(1 << 14)
        values = np.arange(count, dtype=np.float64)
        mem.write_strided(0, values, stride)
        assert np.array_equal(mem.read_strided(0, count, stride, np.float64),
                              values)


class TestGatherScatter:
    def test_gather(self, mem):
        data = np.arange(32, dtype=np.float64)
        mem.write_array(0, data)
        offsets = np.array([0, 64, 8, 240])
        got = mem.read_gather(0, offsets, np.float64)
        assert np.array_equal(got, [0.0, 8.0, 1.0, 30.0])

    def test_scatter(self, mem):
        mem.write_scatter(0, np.array([0, 80]), np.array([5.0, 7.0]))
        assert mem.load_f64(0) == 5.0
        assert mem.load_f64(80) == 7.0

    def test_empty_gather(self, mem):
        got = mem.read_gather(0, np.array([], dtype=np.int64), np.float64)
        assert got.size == 0


class TestAllocator:
    def test_alignment(self, mem):
        a = mem.alloc(10, align=64)
        b = mem.alloc(10, align=64)
        assert a % 64 == 0 and b % 64 == 0 and b >= a + 10

    def test_out_of_memory(self):
        small = FunctionalMemory(128)
        with pytest.raises(MemoryAccessError):
            small.alloc(256)

    def test_reset(self, mem):
        first = mem.alloc(100)
        mem.reset_allocator()
        assert mem.alloc(100) == first
