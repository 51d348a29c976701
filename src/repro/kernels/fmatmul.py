"""fmatmul — dense DP matrix multiplication C = A @ B (Table I row 1).

The Ara-style formulation: the N dimension is vectorized (one strip of
``vl`` columns, N = vl per Table I), rows of A are processed in blocks of
``ROW_BLOCK``; for every k the kernel loads one row of B once and issues
one ``vfmacc.vf`` per block row with the scalar ``A[r][k]``:

    for block of ROW_BLOCK rows:
        acc[j] = 0
        for k in 0..K-1:
            vB   <- B[k][0:vl]          (vle64, reused by all block rows)
            acc[j] += A[row_j][k] * vB  (vfmacc.vf, the FLOP carrier)
        C[row_j][0:vl] = acc[j]

Peak: one FMA per lane per cycle -> 2 * lanes DP-FLOP/cycle (Table I).
"""

from __future__ import annotations

from ..isa.asm import Assembler
from ..params import SystemConfig
from .common import (KernelRun, Layout, check_array, lazy_golden,
                     lazy_reference, memo_program, rng_for, vl_and_lmul)

#: Rows of A processed per accumulator block (register-budget bound:
#: ROW_BLOCK accumulator groups + one B-row group must fit 32 registers
#: at LMUL up to 4).
ROW_BLOCK = 4

DEFAULT_M = 64
DEFAULT_K = 256


def _fmatmul_program(m: int, k: int, n: int, lmul: int) -> tuple:
    """Program-only skeleton: assembled program plus buffer bases."""
    layout = Layout()
    a_base = layout.alloc_f64("A", m * k)
    b_base = layout.alloc_f64("B", k * n)
    c_base = layout.alloc_f64("C", m * n)

    # Vector register allocation: accumulators at group stride lmul, then
    # two B-row groups used as a double buffer so the next row's load is
    # never write-after-read blocked behind the current row's FMAs (the
    # same ping-pong the hand-written Ara kernels use).
    acc = [f"v{j * lmul}" for j in range(ROW_BLOCK)]
    vb = (f"v{ROW_BLOCK * lmul}", f"v{(ROW_BLOCK + 1) * lmul}")

    asm = Assembler(f"fmatmul_{m}x{k}x{n}")
    asm.li("x1", n)
    asm.vsetvli("x2", "x1", sew=64, lmul=lmul)
    asm.li("x5", a_base)        # A block base
    asm.li("x7", c_base)        # C block base
    asm.li("x10", m // ROW_BLOCK)

    asm.label("block_loop")
    for j in range(ROW_BLOCK):
        asm.vmv_v_i(acc[j], 0)
    asm.li("x6", b_base)        # B row pointer (restarts every block)
    asm.mv("x11", "x5")         # A element pointer (column k of the block)
    asm.li("x9", k // 2)

    # The k loop is unrolled by two so each iteration statically targets
    # one half of the B double buffer.
    asm.label("k_loop")
    for half in range(2):
        asm.vle64_v(vb[half], "x6")
        for j in range(ROW_BLOCK):
            asm.fld(f"f{j}", "x11", j * k * 8)
        for j in range(ROW_BLOCK):
            asm.vfmacc_vf(acc[j], f"f{j}", vb[half])
        asm.addi("x6", "x6", n * 8)
        asm.addi("x11", "x11", 8)
    asm.addi("x9", "x9", -1)
    asm.bnez("x9", "k_loop")

    for j in range(ROW_BLOCK):
        asm.addi("x12", "x7", j * n * 8)
        asm.vse64_v(acc[j], "x12")
    asm.addi("x5", "x5", ROW_BLOCK * k * 8)
    asm.addi("x7", "x7", ROW_BLOCK * n * 8)
    asm.addi("x10", "x10", -1)
    asm.bnez("x10", "block_loop")
    asm.halt()
    return asm.build(), a_base, b_base, c_base


def _fmatmul_inputs(m: int, k: int, n: int) -> tuple:
    """Golden inputs A and B (built on first use)."""
    rng = rng_for("fmatmul", m, k, n)
    a_mat = rng.uniform(-1.0, 1.0, size=(m, k))
    b_mat = rng.uniform(-1.0, 1.0, size=(k, n))
    return a_mat, b_mat


def build_fmatmul(config: SystemConfig, bytes_per_lane: int,
                  m: int = DEFAULT_M, k: int = DEFAULT_K) -> KernelRun:
    """Build the fmatmul run for one operating point (arrays stay lazy)."""
    vl, lmul = vl_and_lmul(config, bytes_per_lane)
    n = vl  # Table I: N spans exactly one strip
    if m % ROW_BLOCK:
        raise ValueError(f"m={m} must be a multiple of {ROW_BLOCK}")
    if k % 2:
        raise ValueError(f"k={k} must be even (B double buffering)")

    program, a_base, b_base, c_base = memo_program(
        ("fmatmul", m, k, n, lmul),
        lambda: _fmatmul_program(m, k, n, lmul))
    golden = lazy_golden(("fmatmul", m, k, n),
                         lambda: _fmatmul_inputs(m, k, n))
    reference = lazy_reference(("fmatmul", m, k, n), golden,
                               lambda a_mat, b_mat: a_mat @ b_mat)

    def setup(sim) -> None:
        a_mat, b_mat = golden()
        sim.mem.write_array(a_base, a_mat.reshape(-1))
        sim.mem.write_array(b_base, b_mat.reshape(-1))

    def check(sim) -> float:
        # The simulator FMA is not fused and accumulates in a different
        # association order than BLAS; tolerance covers K=256 partials.
        return check_array(sim, c_base, reference(), "fmatmul C",
                           rtol=1e-9, atol=1e-7 * k)

    return KernelRun(
        name="fmatmul",
        program=program,
        setup=setup,
        check=check,
        dp_flops=2.0 * m * k * n,
        max_flops_per_cycle=2.0 * config.lanes,
        problem={"m": m, "k": k, "n": n, "vl": vl, "lmul": lmul,
                 "bytes_per_lane": bytes_per_lane},
    )
