#!/usr/bin/env python3
"""Writing your own long-vector kernel against the public API.

Computes the exponential-normalizer of a long vector — z = exp(clamp(x))
and sum(z) — reusing the library's exp pipeline building block, with a
handful of poisoned (+inf) inputs to show the clamping path, on a
32-lane AraXL.  Demonstrates: the assembler DSL, reusing kernel building
blocks (:func:`emit_exp_body`), reductions, and a NumPy cross-check.
"""

import numpy as np

from repro import Assembler, AraXLConfig, Simulator
from repro.kernels.expk import EXP_CONSTS, emit_exp_body, emit_exp_consts


def main() -> None:
    config = AraXLConfig(lanes=32)
    sim = Simulator(config)
    n = config.vlmax(64, lmul=1)  # one full register of DP elements
    rng = np.random.default_rng(1)
    x = rng.uniform(-6.0, 6.0, n)
    x[::97] = np.inf  # poisoned entries; the exp clamp must absorb them

    x_addr = 0
    z_addr = n * 8
    consts_addr = 2 * n * 8
    sum_addr = consts_addr + len(EXP_CONSTS) * 8
    sim.mem.write_array(x_addr, x)
    sim.mem.write_array(consts_addr, np.array(EXP_CONSTS))

    asm = Assembler("exp_normalizer")
    asm.li("x1", n)
    asm.vsetvli("x2", "x1", sew=64, lmul=1)
    emit_exp_consts(asm, consts_addr)
    asm.li("x21", 1023)  # exponent bias for the scale construction
    asm.li("x5", x_addr)
    asm.li("x6", z_addr)
    asm.li("x7", sum_addr)
    asm.vle64_v("v0", "x5")
    # The exp body clamps its input (vfmin/vfmax), so the +inf entries
    # saturate to exp(clamp_hi) instead of producing NaNs downstream.
    result = emit_exp_body(asm, lmul=1)
    asm.vse64_v(result, "x6")
    asm.vmv_s_x("v29", "x0")                  # zero seed
    asm.vfredusum_vs("v28", result, "v29")    # sum of all exponentials
    asm.vfmv_f_s("f1", "v28")
    asm.fsd("f1", "x7", 0)
    asm.halt()

    run = sim.run(asm.build())
    z = sim.mem.read_array(z_addr, n, np.float64)
    total = sim.mem.load_f64(sum_addr)

    golden = np.exp(np.clip(x, EXP_CONSTS[1], EXP_CONSTS[0]))
    finite = np.isfinite(x)
    assert np.allclose(z[finite], golden[finite], rtol=1e-5)
    # The clamped +inf inputs saturate to ~1.8e308 each, so the sum
    # overflows to +inf, the value the vector reduction must give too.
    with np.errstate(over="ignore"):
        expected = z.sum()
    assert np.isclose(total, expected, rtol=1e-9)

    print(f"n = {n} elements on {config.name}")
    print(f"cycles          : {run.cycles:.0f}")
    print(f"DP-FLOP/cycle   : {run.flops_per_cycle:.1f}")
    print(f"exp sum         : {total:.6e}")
    print("functional check: OK (clamped exp matches NumPy)")


if __name__ == "__main__":
    main()
