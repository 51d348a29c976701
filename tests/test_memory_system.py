"""Memory-system substrate: AXI bursts, banked L2, invalidation filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.memory import (AxiPort, BankedL2, DirectMappedCache,
                          InvalidationFilter, split_into_bursts)
from repro.memory.axi import BOUNDARY_BYTES, MAX_BEATS_PER_BURST


class TestBurstSplitting:
    @given(st.integers(min_value=0, max_value=2**20),
           st.integers(min_value=0, max_value=64 * 1024),
           st.sampled_from([8, 16, 32, 64, 128]))
    @settings(max_examples=80, deadline=None)
    def test_bursts_are_legal_and_cover(self, addr, nbytes, beat):
        bursts = split_into_bursts(addr, nbytes, beat)
        for b in bursts:
            assert b.beats <= MAX_BEATS_PER_BURST
            assert b.addr // BOUNDARY_BYTES == (b.end - 1) // BOUNDARY_BYTES \
                or b.end % BOUNDARY_BYTES == 0
        if nbytes:
            assert bursts[0].addr <= addr
            assert bursts[-1].end >= addr + nbytes
        # bursts are contiguous and ordered
        for a, b in zip(bursts, bursts[1:]):
            assert b.addr == a.end

    def test_zero_bytes(self):
        assert split_into_bursts(100, 0, 64) == []

    def test_crossing_4k(self):
        bursts = split_into_bursts(BOUNDARY_BYTES - 64, 128, 64)
        assert len(bursts) == 2

    def test_bad_beat_width(self):
        with pytest.raises(MemoryAccessError):
            split_into_bursts(0, 64, 24)


class TestAxiPort:
    def test_latency_and_bandwidth(self):
        port = AxiPort(beat_bytes=64, latency=10)
        first, last = port.issue(0.0, 0, 64 * 16)
        assert first == 11
        assert last == 10 + 16
        assert port.beats_total == 16

    def test_back_to_back_serialize(self):
        port = AxiPort(beat_bytes=64, latency=10)
        port.issue(0.0, 0, 64 * 8)
        first2, _ = port.issue(0.0, 4096, 64)
        assert first2 == 8 + 11  # waits for the first transfer's beats

    def test_effective_bandwidth(self):
        port = AxiPort(beat_bytes=64, latency=0)
        assert port.effective_bandwidth(640, 10) == 64.0


class TestBankedL2:
    def test_consecutive_lines_spread_banks(self):
        l2 = BankedL2(banks=8, line_bytes=64)
        banks = {l2.bank_of(i * 64) for i in range(8)}
        assert banks == set(range(8))

    def test_unit_stride_full_bandwidth(self):
        l2 = BankedL2(banks=8)
        assert l2.conflict_factor(8) == 1.0

    def test_bank_stride_conflicts(self):
        l2 = BankedL2(banks=8, line_bytes=64)
        assert l2.conflict_factor(8 * 64) == 1.0 / 8

    def test_half_bank_stride(self):
        l2 = BankedL2(banks=8, line_bytes=64)
        assert l2.conflict_factor(4 * 64) == pytest.approx(0.25)

    def test_power_of_two_banks_required(self):
        with pytest.raises(Exception):
            BankedL2(banks=6)

    def test_sustained_bandwidth(self):
        l2 = BankedL2(banks=4, bytes_per_cycle_per_bank=32)
        assert l2.peak_bytes_per_cycle == 128
        assert l2.sustained_bandwidth(4 * 64) == 32


class TestInvalidationFilter:
    def _setup(self):
        dcache = DirectMappedCache(1024, 64)
        return dcache, InvalidationFilter(dcache)

    def test_vector_store_invalidates_cached_line(self):
        dcache, filt = self._setup()
        dcache.access(128)
        filt.note_scalar_fill(128)
        filt.on_vector_store(128, 8)
        assert not dcache.access(128)  # line was invalidated -> miss

    def test_unseen_line_not_probed(self):
        dcache, filt = self._setup()
        forwarded = filt.on_vector_store(4096, 64)
        assert forwarded == 0

    def test_conservative_never_misses_real_hit(self):
        # Every line the D$ holds must be probed when written by vector.
        dcache, filt = self._setup()
        for addr in range(0, 1024, 64):
            dcache.access(addr)
            filt.note_scalar_fill(addr)
        for addr in range(0, 1024, 64):
            assert filt.on_vector_store(addr, 8) >= 1

    def test_multi_line_store(self):
        dcache, filt = self._setup()
        for addr in (0, 64, 128):
            dcache.access(addr)
            filt.note_scalar_fill(addr)
        assert filt.on_vector_store(0, 192) == 3


class TestDirectMappedCache:
    def test_hit_after_fill(self):
        c = DirectMappedCache(1024, 64)
        assert not c.access(0)
        assert c.access(0)
        assert c.hits == 1 and c.misses == 1

    def test_conflict_eviction(self):
        c = DirectMappedCache(128, 64)  # 2 lines
        c.access(0)
        c.access(128)  # same index as 0
        assert not c.access(0)


class TestAccessMany:
    """The batch D$ walk is exactly ``access`` on each address in order."""

    @given(line_bytes=st.sampled_from([1, 4, 16, 64]),
           num_lines=st.integers(min_value=1, max_value=16),
           slack=st.integers(min_value=0, max_value=3),
           base=st.sampled_from([0, 2**40, 2**70]),
           warm=st.lists(st.integers(-512, 4096), max_size=24),
           offsets=st.lists(st.integers(-512, 4096), max_size=80),
           probe=st.lists(st.integers(-512, 4096), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_access(self, line_bytes, num_lines, slack,
                                       base, warm, offsets, probe):
        size = line_bytes * num_lines + slack  # odd sizes floor the lines
        seq = DirectMappedCache(size, line_bytes)
        batch = DirectMappedCache(size, line_bytes)
        for addr in warm:
            seq.access(base + addr)
            batch.access(base + addr)
        addrs = [base + off for off in offsets]
        expect = [seq.access(addr) for addr in addrs]
        # Beyond int64 the addresses stay Python ints in an object array.
        column = np.array(addrs, dtype=object if base > 2**62 else np.int64)
        mask = batch.access_many(column)
        assert mask.dtype == bool and mask.tolist() == expect
        assert (batch.hits, batch.misses) == (seq.hits, seq.misses)
        assert batch._tags == seq._tags
        for addr in probe:
            batch.invalidate_line(base + addr // 2)
            seq.invalidate_line(base + addr // 2)
            assert batch.access(base + addr) == seq.access(base + addr)
        assert (batch.hits, batch.misses) == (seq.hits, seq.misses)

    def test_empty_batch_changes_nothing(self):
        c = DirectMappedCache(1024, 64)
        c.access(0)
        assert c.access_many(np.zeros(0, dtype=np.int64)).size == 0
        assert (c.hits, c.misses) == (0, 1) and c.access(0)
