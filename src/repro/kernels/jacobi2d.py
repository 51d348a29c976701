"""jacobi2d — 5-point Jacobi stencil sweep over a 256-row grid (Table I).

One Jacobi update per interior point:

    out[i][j] = 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1])

Columns are vectorized; the east/west neighbours come from
``vfslide1up/down`` with the halo columns feeding the boundary element.
4 DP-FLOP per point over 4 FPU ops -> peak = lanes DP-FLOP/cycle.
"""

from __future__ import annotations

import numpy as np

from ..isa.asm import Assembler
from ..params import SystemConfig
from .common import (KernelRun, Layout, check_array, lazy_golden,
                     lazy_reference, memo_program, rng_for, vl_and_lmul)

DEFAULT_ROWS = 256


def _jacobi2d_program(rows: int, n: int, lmul: int) -> tuple:
    """Program-only skeleton: assembled program plus buffer bases."""
    in_w = n + 2  # one halo column each side
    in_rows = rows + 2  # one halo row top and bottom

    layout = Layout()
    a_base = layout.alloc_f64("A", in_rows * in_w)
    o_base = layout.alloc_f64("O", rows * n)
    const_base = layout.alloc_f64("consts", 1)

    # Register groups (aligned to LMUL): up, down, cur, west, east, scratch,
    # result.  Seven groups of LMUL<=4 fit the 32-register file.
    v_up, v_dn, v_cur, v_w, v_e, v_t, v_out = (
        f"v{i * lmul}" for i in range(1, 8))

    asm = Assembler(f"jacobi2d_{rows}x{n}")
    asm.li("x1", n)
    asm.vsetvli("x2", "x1", sew=64, lmul=lmul)
    asm.li("x5", a_base)  # base of row i-1 (starts at halo row 0)
    asm.li("x7", o_base)
    asm.li("x14", const_base)
    asm.fld("f3", "x14", 0)  # 0.25
    asm.li("x10", rows)

    asm.label("row_loop")
    # Interior of rows i-1, i, i+1 starts one halo element in.
    asm.addi("x11", "x5", 8)                    # &A[i-1][1]
    asm.addi("x12", "x5", (in_w + 1) * 8)       # &A[i][1]
    asm.addi("x13", "x5", (2 * in_w + 1) * 8)   # &A[i+1][1]
    asm.vle64_v(v_up, "x11")
    asm.vle64_v(v_cur, "x12")
    asm.vle64_v(v_dn, "x13")
    # West neighbour: slide up, halo element A[i][0] enters at j=0.
    asm.fld("f1", "x5", in_w * 8)
    asm.vfslide1up_vf(v_w, v_cur, "f1")
    # East neighbour: slide down, halo element A[i][n+1] enters at j=n-1.
    asm.fld("f2", "x5", (in_w + n + 1) * 8)
    asm.vfslide1down_vf(v_e, v_cur, "f2")
    asm.vfadd_vv(v_t, v_up, v_dn)
    asm.vfadd_vv(v_w, v_w, v_e)
    asm.vfadd_vv(v_t, v_t, v_w)
    asm.vfmul_vf(v_out, v_t, "f3")
    asm.vse64_v(v_out, "x7")
    asm.addi("x5", "x5", in_w * 8)
    asm.addi("x7", "x7", n * 8)
    asm.addi("x10", "x10", -1)
    asm.bnez("x10", "row_loop")
    asm.halt()
    return asm.build(), a_base, o_base, const_base


def _jacobi2d_inputs(rows: int, n: int) -> tuple:
    """Golden input: the grid (built on first use)."""
    rng = rng_for("jacobi2d", rows, n)
    return (rng.uniform(-1.0, 1.0, size=(rows + 2, n + 2)),)


def _jacobi2d_reference(grid: np.ndarray) -> np.ndarray:
    """Reference update of the grid's interior."""
    return 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                   + grid[1:-1, :-2] + grid[1:-1, 2:])


def build_jacobi2d(config: SystemConfig, bytes_per_lane: int,
                   rows: int = DEFAULT_ROWS) -> KernelRun:
    """Build the jacobi2d run for one operating point (arrays stay lazy)."""
    vl, lmul = vl_and_lmul(config, bytes_per_lane)
    n = vl

    program, a_base, o_base, const_base = memo_program(
        ("jacobi2d", rows, n, lmul),
        lambda: _jacobi2d_program(rows, n, lmul))
    golden = lazy_golden(("jacobi2d", rows, n),
                         lambda: _jacobi2d_inputs(rows, n))
    reference = lazy_reference(("jacobi2d", rows, n), golden,
                               _jacobi2d_reference)

    def setup(sim) -> None:
        sim.mem.write_array(a_base, golden()[0].reshape(-1))
        sim.mem.store_f64(const_base, 0.25)

    def check(sim) -> float:
        return check_array(sim, o_base, reference(), "jacobi2d O")

    return KernelRun(
        name="jacobi2d",
        program=program,
        setup=setup,
        check=check,
        dp_flops=4.0 * rows * n,
        max_flops_per_cycle=float(config.lanes),
        problem={"rows": rows, "n": n, "vl": vl, "lmul": lmul,
                 "bytes_per_lane": bytes_per_lane},
    )
