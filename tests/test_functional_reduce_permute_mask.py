"""Reductions, slides/gathers, and MASKU operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.vec_utils import VecEnv

RNG = np.random.default_rng(17)


def _env(vl=21, sew=64, lmul=1):
    return VecEnv(vl, sew=sew, lmul=lmul)


class TestFpReductions:
    def test_vfredusum(self):
        env = _env()
        a = env.rand_f64(RNG)
        env.set_v(8, a)
        env.set_v(16, np.array([2.0]), emul=1)  # seed
        env.run("vfredusum_vs", "v24", "v8", "v16")
        assert np.isclose(env.get_v(24, count=1)[0], 2.0 + a.sum())

    def test_vfredmax_with_seed_dominant(self):
        env = _env()
        a = env.rand_f64(RNG, -10, 10)
        env.set_v(8, a)
        env.set_v(16, np.array([1e9]), emul=1)
        env.run("vfredmax_vs", "v24", "v8", "v16")
        assert env.get_v(24, count=1)[0] == 1e9

    def test_vfredmin(self):
        env = _env()
        a = env.rand_f64(RNG)
        env.set_v(8, a)
        env.set_v(16, np.array([np.inf]), emul=1)
        env.run("vfredmin_vs", "v24", "v8", "v16")
        assert env.get_v(24, count=1)[0] == a.min()

    def test_masked_reduction_skips_inactive(self):
        env = _env(vl=4)
        env.set_mask(0, [True, False, True, False])
        env.set_v(8, np.array([1.0, 100.0, 2.0, 100.0]))
        env.set_v(16, np.array([0.0]), emul=1)
        env.run("vfredusum_vs", "v24", "v8", "v16", masked=True)
        assert env.get_v(24, count=1)[0] == 3.0


class TestIntReductions:
    def test_vredsum_wraps(self):
        env = _env(vl=3)
        env.set_v(8, np.array([2**62, 2**62, 2**62], dtype=np.int64))
        env.set_v(16, np.array([0], dtype=np.int64), emul=1)
        env.run("vredsum_vs", "v24", "v8", "v16")
        total = (3 * 2**62) % 2**64
        expected = total - 2**64 if total >= 2**63 else total
        assert int(env.get_v(24, count=1, dtype=np.int64)[0]) == expected

    @pytest.mark.parametrize("mn,func", [
        ("vredand_vs", np.bitwise_and.reduce),
        ("vredor_vs", np.bitwise_or.reduce),
        ("vredxor_vs", np.bitwise_xor.reduce)])
    def test_bitwise_reductions(self, mn, func):
        env = _env(vl=9)
        a = env.rand_int(RNG, np.uint64)
        seed = np.array([0xFF], dtype=np.uint64)
        env.set_v(8, a)
        env.set_v(16, seed, emul=1)
        env.run(mn, "v24", "v8", "v16")
        npop = {"vredand_vs": np.bitwise_and, "vredor_vs": np.bitwise_or,
                "vredxor_vs": np.bitwise_xor}[mn]
        assert env.get_v(24, count=1, dtype=np.uint64)[0] == \
            npop(seed[0], func(a))


class TestReductionAtVlZero:
    """RVV 1.0: a reduction at ``vl`` = 0 performs no operation, so vd
    keeps its value instead of taking the vs1 seed."""

    @pytest.mark.parametrize("mn,dtype,vd,seed", [
        ("vfredusum_vs", np.float64, 7.0, 5.0),
        ("vredsum_vs", np.int64, 7, 5)])
    def test_vd_is_unchanged(self, mn, dtype, vd, seed):
        env = _env(vl=0)
        env.set_v(24, np.array([vd], dtype=dtype), emul=1)
        env.set_v(16, np.array([seed], dtype=dtype), emul=1)
        env.run(mn, "v24", "v8", "v16")
        assert env.get_v(24, count=1, dtype=dtype)[0] == vd


class TestSlides:
    def test_vslide1down(self):
        env = _env(vl=4)
        env.set_v(8, np.array([1.0, 2.0, 3.0, 4.0]))
        env.state.f.write(1, 9.0)
        event = env.run("vfslide1down_vf", "v16", "v8", "f1")
        assert np.array_equal(env.get_v(16), [2.0, 3.0, 4.0, 9.0])
        assert event.slide_amount == 1

    def test_vslide1up(self):
        env = _env(vl=4)
        env.set_v(8, np.array([1.0, 2.0, 3.0, 4.0]))
        env.state.f.write(1, 9.0)
        env.run("vfslide1up_vf", "v16", "v8", "f1")
        assert np.array_equal(env.get_v(16), [9.0, 1.0, 2.0, 3.0])

    def test_vslideup_keeps_low_elements(self):
        env = _env(vl=5)
        env.set_v(8, np.arange(5, dtype=np.uint64))
        env.set_v(16, np.full(5, 77, dtype=np.uint64))
        env.state.x.write(3, 2)
        env.run("vslideup_vx", "v16", "v8", "x3")
        assert np.array_equal(env.get_v(16, dtype=np.uint64),
                              [77, 77, 0, 1, 2])

    def test_vslidedown_zero_fills_past_group(self):
        env = VecEnv(8, sew=64, lmul=1, vlen_bits=512)  # vlmax = 8
        env.set_v(8, np.arange(8, dtype=np.uint64))
        env.state.x.write(3, 5)
        env.run("vslidedown_vx", "v16", "v8", "x3")
        assert np.array_equal(env.get_v(16, dtype=np.uint64),
                              [5, 6, 7, 0, 0, 0, 0, 0])

    def test_int_slide1down_vx(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1, 2, 3], dtype=np.int64))
        env.state.x.write(3, -7)
        env.run("vslide1down_vx", "v16", "v8", "x3")
        assert np.array_equal(env.get_v(16, dtype=np.int64), [2, 3, -7])

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_slideup_property(self, vl, offset):
        env = VecEnv(vl)
        src = np.arange(vl, dtype=np.uint64)
        dest = np.full(vl, 99, dtype=np.uint64)
        env.set_v(8, src)
        env.set_v(16, dest)
        env.state.x.write(3, offset)
        env.run("vslideup_vx", "v16", "v8", "x3")
        got = env.get_v(16, dtype=np.uint64)
        for i in range(vl):
            if i < offset:
                assert got[i] == 99
            else:
                assert got[i] == src[i - offset]


class TestGatherCompress:
    def test_vrgather(self):
        env = _env(vl=4)
        env.set_v(8, np.array([10.0, 11.0, 12.0, 13.0]))
        env.set_v(16, np.array([3, 3, 0, 500], dtype=np.uint64))
        env.run("vrgather_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [13.0, 13.0, 10.0, 0.0])

    def test_vcompress(self):
        env = _env(vl=5)
        env.set_v(8, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        env.set_mask(3, [True, False, True, False, True])
        env.set_v(24, np.full(5, -1.0))
        env.run("vcompress_vm", "v24", "v8", "v3")
        assert np.array_equal(env.get_v(24), [1.0, 3.0, 5.0, -1.0, -1.0])


class TestMaskUnit:
    def test_logical_ops(self):
        env = _env(vl=8)
        a = np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=bool)
        b = np.array([1, 0, 1, 0, 0, 1, 1, 0], dtype=bool)
        env.set_mask(4, a)
        env.set_mask(5, b)
        env.run("vmand_mm", "v6", "v4", "v5")
        assert np.array_equal(env.get_mask(6), a & b)
        env.run("vmnor_mm", "v7", "v4", "v5")
        assert np.array_equal(env.get_mask(7), ~(a | b))
        env.run("vmandn_mm", "v2", "v4", "v5")
        assert np.array_equal(env.get_mask(2), a & ~b)

    def test_vcpop_and_vfirst(self):
        env = _env(vl=10)
        bits = np.array([0, 0, 1, 0, 1, 1, 0, 0, 0, 1], dtype=bool)
        env.set_mask(4, bits)
        env.run("vcpop_m", "x5", "v4")
        env.run("vfirst_m", "x6", "v4")
        assert env.state.x.read(5) == 4
        assert env.state.x.read(6) == 2

    def test_vfirst_empty_is_minus_one(self):
        env = _env(vl=6)
        env.set_mask(4, np.zeros(6, dtype=bool))
        env.run("vfirst_m", "x6", "v4")
        assert env.state.x.read(6) == -1

    def test_set_before_including_only_first(self):
        env = _env(vl=6)
        env.set_mask(4, [False, False, True, False, True, False])
        env.run("vmsbf_m", "v5", "v4")
        env.run("vmsif_m", "v6", "v4")
        env.run("vmsof_m", "v7", "v4")
        assert np.array_equal(env.get_mask(5), [1, 1, 0, 0, 0, 0])
        assert np.array_equal(env.get_mask(6), [1, 1, 1, 0, 0, 0])
        assert np.array_equal(env.get_mask(7), [0, 0, 1, 0, 0, 0])

    def test_viota_exclusive_prefix(self):
        env = _env(vl=6)
        env.set_mask(4, [True, False, True, True, False, True])
        env.run("viota_m", "v8", "v4")
        assert np.array_equal(env.get_v(8, dtype=np.uint64),
                              [0, 1, 1, 2, 3, 3])
