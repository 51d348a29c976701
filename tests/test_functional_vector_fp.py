"""Floating-point vector semantics: binops, FMA family, conversions."""

import warnings

import numpy as np
import pytest

from repro.functional import Executor
from repro.functional.vector_ops import arith, fp
from repro.functional.vector_ops.arith import IntOp
from repro.isa import Assembler
from tests.vec_utils import VecEnv

RNG = np.random.default_rng(11)


def _env(vl=17, sew=64, lmul=1):
    return VecEnv(vl, sew=sew, lmul=lmul)


class TestBinops:
    @pytest.mark.parametrize("mn,func", [
        ("vfadd_vv", np.add), ("vfsub_vv", np.subtract),
        ("vfmul_vv", np.multiply), ("vfmin_vv", np.fmin),
        ("vfmax_vv", np.fmax)])
    def test_vv_forms(self, mn, func):
        env = _env()
        a = env.rand_f64(RNG)
        b = env.rand_f64(RNG)
        env.set_v(8, a)
        env.set_v(16, b)
        env.run(mn, "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), func(a, b))

    def test_vfdiv_ieee(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 0.0, -1.0]))
        env.set_v(16, np.array([0.0, 0.0, 0.0]))
        env.run("vfdiv_vv", "v24", "v8", "v16")
        got = env.get_v(24)
        assert got[0] == np.inf and np.isnan(got[1]) and got[2] == -np.inf

    def test_vf_form_broadcasts_scalar(self):
        env = _env()
        a = env.rand_f64(RNG)
        env.set_v(8, a)
        env.state.f.write(2, 2.5)
        env.run("vfadd_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), a + 2.5)

    def test_vfrsub_vf(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 2.0, 3.0]))
        env.state.f.write(2, 10.0)
        env.run("vfrsub_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), [9.0, 8.0, 7.0])

    def test_vfrdiv_vf(self):
        env = _env(vl=2)
        env.set_v(8, np.array([2.0, 4.0]))
        env.state.f.write(2, 8.0)
        env.run("vfrdiv_vf", "v24", "v8", "f2")
        assert np.array_equal(env.get_v(24), [4.0, 2.0])

    def test_fmin_returns_non_nan(self):
        env = _env(vl=2)
        env.set_v(8, np.array([np.nan, 1.0]))
        env.set_v(16, np.array([3.0, np.nan]))
        env.run("vfmin_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [3.0, 1.0])

    def test_float32_sew(self):
        env = _env(vl=5, sew=32)
        a = RNG.uniform(-10, 10, 5).astype(np.float32)
        env.set_v(8, a)
        env.set_v(16, a)
        env.run("vfmul_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24, dtype=np.float32), a * a)


class TestSignInjection:
    def test_vfsgnj_copies_sign(self):
        env = _env(vl=2)
        env.set_v(8, np.array([3.0, -3.0]))
        env.set_v(16, np.array([-1.0, 1.0]))
        env.run("vfsgnj_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [-3.0, 3.0])

    def test_vfsgnjx_xors_signs(self):
        env = _env(vl=4)
        env.set_v(8, np.array([3.0, -3.0, 3.0, -3.0]))
        env.set_v(16, np.array([1.0, 1.0, -1.0, -1.0]))
        env.run("vfsgnjx_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24), [3.0, -3.0, -3.0, 3.0])

    def test_sgnjn_negative_zero(self):
        env = _env(vl=1)
        env.set_v(8, np.array([5.0]))
        env.set_v(16, np.array([0.0]))
        env.run("vfsgnjn_vv", "v24", "v8", "v16")
        assert np.signbit(env.get_v(24)[0])


class TestFmaFamily:
    def _prep(self, env):
        a = env.rand_f64(RNG)   # vs1
        b = env.rand_f64(RNG)   # vs2
        c = env.rand_f64(RNG)   # vd
        env.set_v(8, a)
        env.set_v(16, b)
        env.set_v(24, c)
        return a, b, c

    @pytest.mark.parametrize("mn,expr", [
        ("vfmacc_vv", lambda a, b, c: a * b + c),
        ("vfnmacc_vv", lambda a, b, c: -(a * b) - c),
        ("vfmsac_vv", lambda a, b, c: a * b - c),
        ("vfnmsac_vv", lambda a, b, c: -(a * b) + c),
        ("vfmadd_vv", lambda a, b, c: a * c + b),
        ("vfmsub_vv", lambda a, b, c: a * c - b),
        ("vfnmadd_vv", lambda a, b, c: -(a * c) - b),
        ("vfnmsub_vv", lambda a, b, c: -(a * c) + b),
    ])
    def test_vv_semantics(self, mn, expr):
        env = _env()
        a, b, c = self._prep(env)
        env.run(mn, "v24", "v8", "v16")
        assert np.allclose(env.get_v(24), expr(a, b, c), rtol=0, atol=0)

    def test_vfmacc_vf(self):
        env = _env()
        b = env.rand_f64(RNG)
        c = env.rand_f64(RNG)
        env.set_v(16, b)
        env.set_v(24, c)
        env.state.f.write(1, 1.5)
        env.run("vfmacc_vf", "v24", "f1", "v16")
        assert np.array_equal(env.get_v(24), 1.5 * b + c)

    @pytest.mark.parametrize("base", sorted(fp.FMA_IN_PLACE))
    @pytest.mark.parametrize("alias", ["vs1", "vs2"])
    def test_vd_aliasing_a_source(self, base, alias):
        """The unmasked in-place path reads every operand before it
        writes vd, as the reference function does, and leaves the tail
        past ``vl`` alone."""
        env = _env(vl=13)
        a = env.rand_f64(RNG)
        b = env.rand_f64(RNG)
        env.set_v(8, a)
        env.set_v(16, b)
        vd = "v8" if alias == "vs1" else "v16"
        tail = env.get_v(int(vd[1:]), count=32)[13:]
        env.run(f"{base}_vv", vd, "v8", "v16")
        want = fp.FMA[base](a if alias == "vs1" else b, a, b)
        assert np.array_equal(env.get_v(int(vd[1:])), want)
        assert np.array_equal(env.get_v(int(vd[1:]), count=32)[13:], tail)

    def test_unmasked_write_to_v0_counts(self):
        env = _env()
        env.set_v(8, env.rand_f64(RNG))
        env.set_v(16, env.rand_f64(RNG))
        before = env.state.v.v0_writes
        env.run("vfmacc_vv", "v0", "v8", "v16")
        assert env.state.v.v0_writes == before + 1


class TestUnaryAndConversions:
    def test_vfsqrt(self):
        env = _env(vl=3)
        env.set_v(8, np.array([4.0, 9.0, -1.0]))
        env.run("vfsqrt_v", "v24", "v8")
        got = env.get_v(24)
        assert got[0] == 2.0 and got[1] == 3.0 and np.isnan(got[2])

    def test_vfabs_vfneg(self):
        env = _env(vl=2)
        env.set_v(8, np.array([-2.0, 2.0]))
        env.run("vfabs_v", "v16", "v8")
        env.run("vfneg_v", "v24", "v8")
        assert np.array_equal(env.get_v(16), [2.0, 2.0])
        assert np.array_equal(env.get_v(24), [2.0, -2.0])

    def test_vfcvt_round_to_nearest_even(self):
        env = _env(vl=4)
        env.set_v(8, np.array([0.5, 1.5, 2.5, -0.5]))
        env.run("vfcvt_x_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.int64), [0, 2, 2, 0])

    def test_vfcvt_rtz_truncates(self):
        env = _env(vl=2)
        env.set_v(8, np.array([1.9, -1.9]))
        env.run("vfcvt_rtz_x_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.int64), [1, -1])

    def test_vfcvt_f_x(self):
        env = _env(vl=2)
        env.set_v(8, np.array([-3, 7], dtype=np.int64))
        env.run("vfcvt_f_x_v", "v24", "v8")
        assert np.array_equal(env.get_v(24), [-3.0, 7.0])

    def test_widening_cvt(self):
        env = _env(vl=3, sew=32)
        env.set_v(8, np.array([1.5, -2.5, 0.0], dtype=np.float32))
        env.run("vfwcvt_f_f_v", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.float64, emul=2),
                              [1.5, -2.5, 0.0])

    def test_narrowing_cvt(self):
        env = _env(vl=2, sew=32)
        env.set_v(8, np.array([1.25, -8.0], dtype=np.float64), emul=2)
        env.run("vfncvt_f_f_w", "v24", "v8")
        assert np.array_equal(env.get_v(24, dtype=np.float32), [1.25, -8.0])


class TestWideningFp:
    def test_vfwmul(self):
        env = _env(vl=3, sew=32)
        a = np.array([1e20, 2.0, -3.0], dtype=np.float32)
        env.set_v(8, a)
        env.set_v(16, a)
        env.run("vfwmul_vv", "v24", "v8", "v16")
        got = env.get_v(24, dtype=np.float64, emul=2)
        assert np.array_equal(got, a.astype(np.float64) ** 2)

    def test_vfwmacc(self):
        env = _env(vl=2, sew=32)
        env.set_v(8, np.array([2.0, 3.0], dtype=np.float32))
        env.set_v(16, np.array([4.0, 5.0], dtype=np.float32))
        env.set_v(24, np.array([1.0, 1.0], dtype=np.float64), emul=2)
        env.run("vfwmacc_vv", "v24", "v8", "v16")
        assert np.array_equal(env.get_v(24, dtype=np.float64, emul=2),
                              [9.0, 16.0])


class TestFpCompares:
    def test_vmflt(self):
        env = _env(vl=3)
        env.set_v(8, np.array([1.0, 2.0, np.nan]))
        env.set_v(16, np.array([2.0, 1.0, 1.0]))
        env.run("vmflt_vv", "v2", "v8", "v16")
        assert np.array_equal(env.get_mask(2), [True, False, False])

    def test_vmfge_vf(self):
        env = _env(vl=3)
        env.set_v(8, np.array([0.5, 1.5, 2.5]))
        env.state.f.write(3, 1.5)
        env.run("vmfge_vf", "v2", "v8", "f3")
        assert np.array_equal(env.get_mask(2), [False, True, True])


class TestMoves:
    def test_vfmv_v_f(self):
        env = _env(vl=4)
        env.state.f.write(1, 6.5)
        env.run("vfmv_v_f", "v8", "f1")
        assert np.array_equal(env.get_v(8), [6.5] * 4)

    def test_vfmv_s_f_and_f_s(self):
        env = _env(vl=4)
        env.state.f.write(1, -3.25)
        env.run("vfmv_s_f", "v8", "f1")
        env.run("vfmv_f_s", "f2", "v8")
        assert env.state.f.read(2) == -3.25

    def test_vfmerge(self):
        env = _env(vl=3)
        env.set_mask(0, [True, False, True])
        env.set_v(8, np.array([1.0, 2.0, 3.0]))
        env.state.f.write(1, 9.0)
        env.run("vfmerge_vfm", "v24", "v8", "f1")
        assert np.array_equal(env.get_v(24), [9.0, 2.0, 9.0])


# ----------------------------------------------------------------------
# Error scope: FP arithmetic is silent, integer conversions still warn
# ----------------------------------------------------------------------
#: The numpy messages CI turns into errors (``PYTHONWARNINGS``).
_CI_MESSAGES = ("overflow encountered", "invalid value encountered",
                "divide by zero encountered")


@pytest.fixture
def ci_warnings():
    """Numpy warnings are errors, filtered like the CI tier-1 job."""
    with warnings.catch_warnings():
        for message in _CI_MESSAGES:
            warnings.filterwarnings("error", message, RuntimeWarning)
        yield


def _program(build):
    a = Assembler("errscope")
    a.li("x1", 4)
    a.vsetvli("x2", "x1", sew=64, lmul=1)
    build(a)
    a.halt()
    return a.build()


def _run_on(values, build):
    ex = Executor(1024)
    ex.state.v.write_elems(8, np.asarray(values, dtype=np.float64), emul=1)
    return ex.run(_program(build))


class TestErrorScope:
    @pytest.mark.parametrize("mnemonic,value", [
        ("vfcvt_x_f_v", np.nan), ("vfcvt_rtz_x_f_v", np.inf)])
    def test_integer_conversion_warns_in_a_run(self, ci_warnings, mnemonic,
                                               value):
        with pytest.raises(RuntimeWarning, match="invalid value"):
            _run_on([1.0, value, 2.0, 3.0],
                    lambda a: getattr(a, mnemonic)("v16", "v8"))

    def test_integer_conversion_warns_on_a_lone_unit(self, ci_warnings):
        env = _env(vl=2)
        env.set_v(8, np.array([np.nan, 1.0]))
        with pytest.raises(RuntimeWarning, match="invalid value"):
            env.run("vfcvt_x_f_v", "v16", "v8")

    def test_fp_arithmetic_is_silent_in_a_run(self, ci_warnings):
        def build(a):
            a.vfsub_vv("v16", "v8", "v8")  # inf - inf: invalid
            a.vfmul_vv("v20", "v8", "v8")  # 1e300 ** 2: overflow
            a.vfdiv_vv("v24", "v8", "v16")  # x / 0 and x / nan
            a.vfsqrt_v("v28", "v8")  # sqrt(-1): invalid
        result = _run_on([np.inf, 1e300, -1.0, 0.0], build)
        assert result.trace.vector_count == 4

    def test_handlers_see_the_right_error_state(self, monkeypatch):
        seen = {}

        def int_add(vs2, op1):
            seen["int"] = np.geterr()
            return vs2 + op1

        def fp_add(vs2, op1):
            seen["fp"] = np.geterr()
            return vs2 + op1

        monkeypatch.setitem(arith.BINOPS, "vadd", IntOp(int_add, True))
        monkeypatch.setitem(fp.BINOPS, "vfadd", fp_add)
        with np.errstate(all="raise"):
            _run_on([1.0] * 4, lambda a: (a.vadd_vv("v16", "v8", "v8"),
                                          a.vfadd_vv("v20", "v8", "v8")))
            assert np.geterr()["invalid"] == "raise"  # restored
        # Integer ops keep the caller's state (wrapping aside) ...
        assert seen["int"] == {"divide": "raise", "over": "ignore",
                               "under": "raise", "invalid": "raise"}
        # ... FP arithmetic runs in the IEEE scope.
        assert seen["fp"]["over"] == seen["fp"]["invalid"] == \
            seen["fp"]["divide"] == "ignore"
