"""Scalar semantics and the interpreter loop (loops, vsetvli, traces)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, IllegalInstructionError
from repro.functional import Executor
from repro.functional.trace import ScalarEvent, VectorEvent, VsetvlEvent
from repro.fuzz.properties import DEFAULT_MACHINES
from repro.isa import Assembler
from repro.machine import get_machine
from repro.timing.engine import TimingEngine
from repro.uarch import build_model
from repro.isa.vtype import LMUL, SEW, VType

I64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


def run(build, vlen=2048):
    a = Assembler("t")
    ex = Executor(vlen)
    build(a, ex)
    a.halt()
    result = ex.run(a.build())
    return ex, result


class TestScalarAlu:
    @given(I64, I64)
    @settings(max_examples=40, deadline=None)
    def test_add_wraps(self, lhs, rhs):
        def build(a, ex):
            ex.state.x.write(1, lhs)
            ex.state.x.write(2, rhs)
            a.add("x3", "x1", "x2")
        ex, _ = run(build)
        total = (lhs + rhs) & (2**64 - 1)
        expected = total - 2**64 if total >= 2**63 else total
        assert ex.state.x.read(3) == expected

    @given(I64, I64)
    @settings(max_examples=40, deadline=None)
    def test_div_matches_riscv(self, lhs, rhs):
        def build(a, ex):
            ex.state.x.write(1, lhs)
            ex.state.x.write(2, rhs)
            a.div("x3", "x1", "x2")
            a.rem("x4", "x1", "x2")
        ex, _ = run(build)
        if rhs == 0:
            assert ex.state.x.read(3) == -1
            assert ex.state.x.read(4) == lhs
        elif lhs == -2**63 and rhs == -1:
            assert ex.state.x.read(3) == lhs
            assert ex.state.x.read(4) == 0
        else:
            q = abs(lhs) // abs(rhs) * (1 if (lhs < 0) == (rhs < 0) else -1)
            assert ex.state.x.read(3) == q
            assert ex.state.x.read(4) == lhs - q * rhs

    def test_x0_is_hardwired_zero(self):
        def build(a, ex):
            a.li("x0", 42)
            a.addi("x1", "x0", 7)
        ex, _ = run(build)
        assert ex.state.x.read(0) == 0
        assert ex.state.x.read(1) == 7

    def test_slt_and_sltu(self):
        def build(a, ex):
            ex.state.x.write(1, -1)
            ex.state.x.write(2, 1)
            a.slt("x3", "x1", "x2")
            a.sltu("x4", "x1", "x2")  # -1 unsigned is huge
        ex, _ = run(build)
        assert ex.state.x.read(3) == 1
        assert ex.state.x.read(4) == 0


class TestScalarFp:
    def test_fmadd(self):
        def build(a, ex):
            ex.state.f.write(1, 2.0)
            ex.state.f.write(2, 3.0)
            ex.state.f.write(3, 4.0)
            a.fmadd_d("f4", "f1", "f2", "f3")
        ex, _ = run(build)
        assert ex.state.f.read(4) == 10.0

    def test_fdiv_by_zero(self):
        def build(a, ex):
            ex.state.f.write(1, 1.0)
            ex.state.f.write(2, 0.0)
            a.fdiv_d("f3", "f1", "f2")
        ex, _ = run(build)
        assert ex.state.f.read(3) == np.inf

    def test_fmv_bit_roundtrip(self):
        def build(a, ex):
            ex.state.f.write(1, -0.0)
            a.fmv_x_d("x1", "f1")
            a.fmv_d_x("f2", "x1")
        ex, _ = run(build)
        assert np.signbit(ex.state.f.read(2))

    def test_fcvt(self):
        def build(a, ex):
            ex.state.x.write(1, -9)
            a.fcvt_d_l("f1", "x1")
            a.fcvt_l_d("x2", "f1")
        ex, _ = run(build)
        assert ex.state.f.read(1) == -9.0
        assert ex.state.x.read(2) == -9

    def test_compares(self):
        def build(a, ex):
            ex.state.f.write(1, 1.0)
            ex.state.f.write(2, 2.0)
            a.flt_d("x1", "f1", "f2")
            a.fle_d("x2", "f2", "f1")
            a.feq_d("x3", "f1", "f1")
        ex, _ = run(build)
        assert (ex.state.x.read(1), ex.state.x.read(2),
                ex.state.x.read(3)) == (1, 0, 1)


class TestControlFlow:
    def test_countdown_loop(self):
        def build(a, ex):
            a.li("x1", 10)
            a.li("x2", 0)
            a.label("loop")
            a.addi("x2", "x2", 3)
            a.addi("x1", "x1", -1)
            a.bnez("x1", "loop")
        ex, _ = run(build)
        assert ex.state.x.read(2) == 30

    def test_forward_jump(self):
        def build(a, ex):
            a.li("x1", 1)
            a.j("skip")
            a.li("x1", 99)
            a.label("skip")
        ex, _ = run(build)
        assert ex.state.x.read(1) == 1

    def test_runaway_loop_guarded(self):
        a = Assembler()
        a.label("forever")
        a.j("forever")
        ex = Executor(2048)
        with pytest.raises(ExecutionError):
            ex.run(a.build(), max_instructions=1000)

    def test_branch_comparisons(self):
        def build(a, ex):
            ex.state.x.write(1, -5)
            ex.state.x.write(2, 5)
            a.li("x3", 0)
            a.blt("x1", "x2", "took")
            a.li("x3", 99)
            a.label("took")
        ex, _ = run(build)
        assert ex.state.x.read(3) == 0


class TestVsetvli:
    def test_clamps_to_vlmax(self):
        def build(a, ex):
            a.li("x1", 10 ** 6)
            a.vsetvli("x2", "x1", sew=64, lmul=2)
        ex, _ = run(build, vlen=2048)
        assert ex.state.vl == 2048 * 2 // 64
        assert ex.state.x.read(2) == ex.state.vl

    def test_rs1_x0_rd_nonzero_requests_vlmax(self):
        def build(a, ex):
            a.vsetvli("x2", "x0", sew=32, lmul=1)
        ex, _ = run(build, vlen=2048)
        assert ex.state.vl == 64

    def test_rs1_x0_rd_x0_keeps_vl(self):
        def build(a, ex):
            a.li("x1", 8)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vsetvli("x0", "x0", sew=64, lmul=2)
        ex, _ = run(build, vlen=2048)
        assert ex.state.vl == 8

    def test_vector_before_vsetvli_is_illegal(self):
        a = Assembler()
        a.vadd_vv("v1", "v2", "v3")
        a.halt()
        with pytest.raises(IllegalInstructionError):
            Executor(2048).run(a.build())


class TestVlZero:
    """RVV 1.0: at vl = 0 a slide1 performs no operation."""

    @pytest.mark.parametrize("machine", DEFAULT_MACHINES)
    def test_slide1_forms_leave_vd_unchanged(self, machine):
        config = get_machine(machine)

        def build(a, ex):
            for reg in (1, 2, 3, 4):
                ex.state.v.write_elems(reg, np.arange(4.0) + 10 * reg,
                                       emul=1)
            ex.state.f.write(1, 5.0)
            ex.state.x.write(5, 9)
            a.li("x1", 0)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vfslide1up_vf("v1", "v4", "f1")
            a.vfslide1down_vf("v2", "v4", "f1")
            a.vslide1up_vx("v3", "v4", "x5")

        ex, result = run(build, vlen=config.vlen_bits)
        for reg in (1, 2, 3):
            assert ex.state.v.read_elems(reg, 4, np.dtype(np.float64),
                                         1).tolist() == \
                (np.arange(4.0) + 10 * reg).tolist()
        assert result.trace.vector_count == 3
        engine = TimingEngine(build_model(config))
        assert engine.replay(result.trace) == \
            engine.replay_reference(result.trace.events)


class TestIllegalVectorOps:
    """An illegal vector op raises when it retires: the instructions
    before it have run, the ones after it have not."""

    @staticmethod
    def _raise(setup, illegal):
        a = Assembler("illegal")
        a.li("x1", 8)
        setup(a)
        a.li("x7", 1)
        illegal(a)
        a.li("x8", 1)
        a.halt()
        ex = Executor(2048)
        with pytest.raises(IllegalInstructionError) as info:
            ex.run(a.build())
        assert (ex.state.x.read(7), ex.state.x.read(8)) == (1, 0)
        return str(info.value)

    def test_before_any_vsetvli(self):
        message = self._raise(
            lambda a: None, lambda a: a.vfadd_vv("v8", "v8", "v8"))
        assert message == ("vector instruction executed with vill set "
                           "(no vsetvli yet?)")

    def test_odd_register_at_lmul2(self):
        def setup(a):
            a.vsetvli("x2", "x1", sew=64, lmul=2)
            a.vfmacc_vf("v2", "f1", "v4")  # legal at e64/m2

        message = self._raise(setup, lambda a: a.vfmacc_vf("v3", "f1", "v4"))
        assert message == "v3 not aligned to EMUL=2 register group"

    def test_widening_vd_not_aligned_to_emul4(self):
        def setup(a):
            a.vsetvli("x2", "x1", sew=32, lmul=2)

        message = self._raise(setup, lambda a: a.vfwadd_vv("v2", "v4", "v6"))
        assert message == "v2 not aligned to EMUL=4 register group"

    def test_vl_beyond_vlmax_set_outside_vsetvli(self):
        a = Assembler("poked")
        a.vfmacc_vf("v8", "f1", "v16")
        a.halt()
        ex = Executor(2048)
        ex.state.vtype = VType(sew=SEW.E64, lmul=LMUL.M1)
        ex.state.vl = 33  # VLMAX is 32
        with pytest.raises(IllegalInstructionError, match="vl=33 exceeds"):
            ex.run(a.build())


class TestTrace:
    def test_event_kinds_and_counts(self):
        def build(a, ex):
            a.li("x1", 4)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.li("x5", 0)
            a.vle64_v("v1", "x5")
            a.vfadd_vv("v2", "v1", "v1")
        ex, result = run(build)
        trace = result.trace
        kinds = [type(e).__name__ for e in trace]
        assert kinds.count("VsetvlEvent") == 1
        assert kinds.count("VectorEvent") == 2
        assert trace.vector_count == 2
        assert trace.scalar_count == 3  # li x1, li x5, vsetvli

    def test_flops_accumulate(self):
        def build(a, ex):
            a.li("x1", 8)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vfmacc_vv("v3", "v1", "v2")
        _, result = run(build)
        assert result.trace.total_flops == 16  # 8 elements * 2 flops

    def test_retired_counts_halt(self):
        def build(a, ex):
            a.li("x1", 1)
        _, result = run(build)
        assert result.retired == 2  # li + halt
        assert result.halted


class TestExecutorLifetime:
    @pytest.mark.parametrize("data", [True, False])
    def test_dropped_executor_is_freed_without_the_cyclic_gc(self, data):
        """No reference cycle holds an executor's vector unit or its
        memory image: with the cyclic GC off, both die with the last
        reference to the executor, after a run with or without data."""
        a = Assembler("lifetime")
        a.li("x1", 8)
        a.li("x10", 64)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.vle64_v("v1", "x10")
        a.vfadd_vv("v2", "v1", "v1")
        a.vfredusum_vs("v3", "v2", "v1")
        a.vse64_v("v2", "x10")
        a.halt()
        program = a.build()
        enabled = gc.isenabled()
        gc.disable()
        try:
            ex = Executor(2048)
            ex.run(program, data=data)
            refs = [weakref.ref(ex._vector), weakref.ref(ex.mem),
                    weakref.ref(ex.state)]
            del ex
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
