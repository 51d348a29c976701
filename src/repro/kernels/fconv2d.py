"""fconv2d — 7x7 dense convolution over a 256-row image (Table I row 2).

The column dimension is vectorized; the 7x7 stencil walks its columns with
``vfslide1down`` (the operation the RINGI is optimized for) and its rows
with unit-stride loads.  Output rows are processed **in pairs sharing the
loaded input rows** — the structure of the hand-optimized Ara kernel —
which both halves the load traffic and interleaves two independent
accumulators so consecutive FMAs never chain on the same register:

    for output rows (i, i+1):
        acc0 = acc1 = 0
        for r in 0..7:                       # input rows i..i+7
            t <- A[i+r][0:vl]
            for c in 0..6:
                if r <= 6: acc0 += F[r][c]   * t
                if r >= 1: acc1 += F[r-1][c] * t
                t = slide1down(t, halo)      # shared by both outputs

49 FMAs per output row against 24 slides and 4 loads: the FPU is the
bottleneck (hence the paper's 97% utilization).  Peak: 2 * lanes.
"""

from __future__ import annotations

import numpy as np

from ..isa.asm import Assembler
from ..params import SystemConfig
from .common import (KernelRun, Layout, check_array, lazy_golden,
                     lazy_reference, memo_program, rng_for, vl_and_lmul)

FILTER = 7
DEFAULT_ROWS = 256


def _fconv2d_program(rows: int, n: int, lmul: int) -> tuple:
    """Program-only skeleton: assembled program plus buffer bases."""
    halo = FILTER - 1
    in_w = n + halo
    in_rows = rows + halo

    layout = Layout()
    a_base = layout.alloc_f64("A", in_rows * in_w)
    f_base = layout.alloc_f64("F", FILTER * FILTER)
    o_base = layout.alloc_f64("O", rows * n)

    # Six groups at LMUL<=4: two accumulators, two alternating load
    # targets, two slide scratch buffers.
    acc = ("v0", f"v{lmul}")
    load_regs = (f"v{2 * lmul}", f"v{3 * lmul}")
    slide_regs = (f"v{4 * lmul}", f"v{5 * lmul}")

    asm = Assembler(f"fconv2d_{rows}x{n}")
    asm.li("x1", n)
    asm.vsetvli("x2", "x1", sew=64, lmul=lmul)
    asm.li("x5", a_base)   # input base of the current row pair
    asm.li("x7", o_base)   # output row pointer
    asm.li("x13", f_base)  # filter coefficients
    asm.li("x10", rows // 2)

    asm.label("pair_loop")
    asm.vmv_v_i(acc[0], 0)
    asm.vmv_v_i(acc[1], 0)
    asm.mv("x11", "x5")  # input row pointer (row i + r)
    for r in range(FILTER + 1):
        load_reg = load_regs[r % 2]
        asm.vle64_v(load_reg, "x11")
        t = load_reg
        for c in range(FILTER):
            if r < FILTER:
                asm.fld("f1", "x13", (r * FILTER + c) * 8)
                asm.vfmacc_vf(acc[0], "f1", t)
            if r >= 1:
                asm.fld("f3", "x13", ((r - 1) * FILTER + c) * 8)
                asm.vfmacc_vf(acc[1], "f3", t)
            if c < FILTER - 1:
                # Incoming halo element A[i+r][n + c]; slides bounce
                # between the two scratch groups, never the load targets.
                asm.fld("f2", "x11", (n + c) * 8)
                dst = slide_regs[c % 2]
                asm.vfslide1down_vf(dst, t, "f2")
                t = dst
        asm.addi("x11", "x11", in_w * 8)
    asm.vse64_v(acc[0], "x7")
    asm.addi("x12", "x7", n * 8)
    asm.vse64_v(acc[1], "x12")
    asm.addi("x5", "x5", 2 * in_w * 8)
    asm.addi("x7", "x7", 2 * n * 8)
    asm.addi("x10", "x10", -1)
    asm.bnez("x10", "pair_loop")
    asm.halt()
    return asm.build(), a_base, f_base, o_base


def _fconv2d_inputs(rows: int, n: int) -> tuple:
    """Golden inputs: image and filter (built on first use)."""
    halo = FILTER - 1
    rng = rng_for("fconv2d", rows, n)
    a_img = rng.uniform(-1.0, 1.0, size=(rows + halo, n + halo))
    filt = rng.uniform(-1.0, 1.0, size=(FILTER, FILTER))
    return a_img, filt


def _fconv2d_reference(a_img: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Reference output of the ``rows`` x ``n`` convolution."""
    rows, n = a_img.shape[0] - FILTER + 1, a_img.shape[1] - FILTER + 1
    golden = np.zeros((rows, n))
    for r in range(FILTER):
        for c in range(FILTER):
            golden += filt[r, c] * a_img[r:r + rows, c:c + n]
    return golden


def build_fconv2d(config: SystemConfig, bytes_per_lane: int,
                  rows: int = DEFAULT_ROWS) -> KernelRun:
    """Build the fconv2d run for one operating point (arrays stay lazy)."""
    if rows % 2:
        raise ValueError(f"rows={rows} must be even (row-pair blocking)")
    vl, lmul = vl_and_lmul(config, bytes_per_lane)
    n = vl

    program, a_base, f_base, o_base = memo_program(
        ("fconv2d", rows, n, lmul),
        lambda: _fconv2d_program(rows, n, lmul))
    golden = lazy_golden(("fconv2d", rows, n),
                         lambda: _fconv2d_inputs(rows, n))
    reference = lazy_reference(("fconv2d", rows, n), golden,
                               _fconv2d_reference)

    def setup(sim) -> None:
        a_img, filt = golden()
        sim.mem.write_array(a_base, a_img.reshape(-1))
        sim.mem.write_array(f_base, filt.reshape(-1))

    def check(sim) -> float:
        return check_array(sim, o_base, reference(), "fconv2d O",
                           rtol=1e-9, atol=1e-9 * FILTER * FILTER)

    return KernelRun(
        name="fconv2d",
        program=program,
        setup=setup,
        check=check,
        dp_flops=2.0 * FILTER * FILTER * rows * n,
        max_flops_per_cycle=2.0 * config.lanes,
        problem={"rows": rows, "n": n, "vl": vl, "lmul": lmul,
                 "bytes_per_lane": bytes_per_lane},
    )
