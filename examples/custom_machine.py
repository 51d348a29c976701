#!/usr/bin/env python3
"""A machine defined purely as data: load a YAML spec, run a kernel.

Loads ``examples/custom_machine.yaml`` (a toy 4-lane single-cluster
AraXL with a slow L2) through the :mod:`repro.machine` spec layer, runs
``fmatmul`` on it through the same capture/replay pipeline as the paper
sweeps, and shows the capture being *shared* with a builtin machine:
the toy spec and the builtin 4L-Ara2 have the same VLEN, so the second
machine replays the first machine's trace without a new capture.

Run from the repository root::

    PYTHONPATH=src python examples/custom_machine.py
"""

from pathlib import Path

from repro.machine import get_machine, to_spec
from repro.params import Ara2Config
from repro.eval.ablations import run_knob_sweep
from repro.sim import SimPool, TraceCache

SPEC_PATH = Path(__file__).resolve().parent / "custom_machine.yaml"


def main() -> None:
    toy = get_machine(str(SPEC_PATH))
    builtin = Ara2Config(lanes=4)
    spec = to_spec(toy)
    print(f"loaded {spec!r}")
    print(f"  VLEN = {toy.vlen_bits} bit "
          f"(same as builtin {builtin.name}: {builtin.vlen_bits} bit)")

    # One shared pool: the kernel is captured once (the capture key is
    # machine-independent) and replayed on both machines.
    pool = SimPool(workers=1, cache=TraceCache())
    rows = run_knob_sweep([toy, builtin],
                          [("fmatmul", 128, {"m": 16, "k": 64})],
                          pool=pool)
    stats = pool.pipeline_stats
    print(f"  captures executed: {stats.capture_points} "
          f"(shared by {stats.replay_points} replays)")
    for config, row in zip((toy, builtin), rows):
        print(f"  {config.name:12s} fmatmul utilization: {row[0] * 100:.1f}%")
    assert stats.capture_points == 1, "expected one shared capture"


if __name__ == "__main__":
    main()
