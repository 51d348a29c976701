#!/usr/bin/env python3
"""Quickstart: write a vector program, run it on AraXL, read the numbers.

Builds a DAXPY (y = a*x + y) over 2048 double-precision elements, runs it
functionally + cycle-level on a 16-lane AraXL, verifies the result, and
prints the timing report.
"""

import numpy as np

from repro import Assembler, AraXLConfig, Simulator


def main() -> None:
    config = AraXLConfig(lanes=16)
    sim = Simulator(config)

    n = 2048
    x_addr, y_addr = 0, n * 8
    x = np.linspace(-1.0, 1.0, n)
    y = np.ones(n)
    sim.mem.write_array(x_addr, x)
    sim.mem.write_array(y_addr, y)
    sim.state.f.write(1, 3.0)  # a = 3.0

    asm = Assembler("daxpy")
    asm.li("x1", n)
    asm.vsetvli("x2", "x1", sew=64, lmul=8)  # VLMAX(64,8) = 2048 on 16 lanes
    asm.li("x5", x_addr)
    asm.li("x6", y_addr)
    asm.vle64_v("v8", "x5")           # v8 <- x
    asm.vle64_v("v16", "x6")          # v16 <- y
    asm.vfmacc_vf("v16", "f1", "v8")  # y += a * x
    asm.vse64_v("v16", "x6")
    asm.halt()

    result = sim.run(asm.build())

    got = sim.mem.read_array(y_addr, n, np.float64)
    assert np.allclose(got, 3.0 * x + 1.0), "DAXPY result mismatch"

    print(f"machine        : {config.name} (VLEN = {config.vlen_bits} bit)")
    print(f"cycles         : {result.cycles:.0f}")
    print(f"DP-FLOP        : {result.dp_flops:.0f}")
    print(f"DP-FLOP/cycle  : {result.flops_per_cycle:.2f} "
          f"(peak {2 * config.lanes})")
    print()
    print(result.timing.summary())


if __name__ == "__main__":
    main()
