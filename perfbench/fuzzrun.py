"""The ``fuzz-cold`` workload: the fuzz sweep over a chosen seed window.

``python -m repro.eval fuzz --seeds N`` always checks seeds ``0..N-1``.
The benchmark needs the window to follow its own ``--seed`` so a claim
can be re-checked on seeds it was not tuned on, so this script makes the
same public calls :func:`repro.eval.fuzz.run_fuzz` makes — one
``"fuzz"`` capture task per seed and VLEN through ``run_pipeline``, then
``generate_case``/``check_case`` per seed — over
``first .. first + count - 1``.  A failing seed is counted and reported,
not shrunk.

Run as a fresh process::

    PYTHONPATH=src python perfbench/fuzzrun.py --first 200 --count 200 \\
        --store DIR

It prints the sweep summary and, as its last line, one JSON object with
the operating points, simulated instructions, failures and recoveries;
the exit code is 1 when any seed fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import sim
from repro.eval.fuzz import FUZZ_BYTES_PER_LANE, FUZZ_SIZE
from repro.fuzz import kernel as fuzz_kernel
from repro.fuzz import properties


def run_window(first: int, count: int, pool) -> tuple[list[str], int, list]:
    """Fuzz seeds ``first .. first + count - 1`` on ``pool``.

    Returns ``(report lines, failed seed count, pipeline reports)``.
    """
    configs = properties.default_configs()
    seeds = range(first, first + count)
    captures = []
    replays = []
    capture_index: dict = {}
    for seed in seeds:
        kwargs = {"seed": seed, "size": FUZZ_SIZE, "features": "all"}
        for config in configs:
            point = (seed, config.vlen_bits)
            if point not in capture_index:
                capture_index[point] = len(captures)
                captures.append(sim.CaptureTask.for_kernel(
                    "fuzz", config, FUZZ_BYTES_PER_LANE, kwargs))
            replays.append((config, capture_index[point]))
    reports = sim.run_pipeline(captures, replays, pool)

    failures = []
    for seed in seeds:
        case = fuzz_kernel.generate_case(seed, size=FUZZ_SIZE,
                                         features="all",
                                         max_avl=FUZZ_BYTES_PER_LANE)
        try:
            properties.check_case(case, configs=configs)
        except properties.PropertyFailure as failure:
            failures.append(f"  FAILED: {failure}")
    lines = [f"fuzz: seeds {first}..{first + count - 1} x {len(configs)} "
             f"machines, {len(captures)} captures, {len(reports)} replays"]
    lines.extend(failures)
    return lines, len(failures), reports


def summary(failures: int, reports: list, pool) -> dict:
    """The machine-readable result line of one window."""
    cache = pool.cache
    recovered = (pool.fault_log.recovered_total() + cache.corrupt_purged
                 + cache.io_retries + int(cache.memory_only))
    return {"points": len(reports),
            "sim_insns": sum(r.vector_instructions + r.scalar_instructions
                             for r in reports),
            "failures": failures, "recovered_total": recovered}


def main(argv: list[str] | None = None) -> int:
    """Run one seed window against an empty on-disk store."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--store", required=True,
                        help="trace-store directory (empty for a cold run)")
    args = parser.parse_args(argv)
    pool = sim.SimPool(workers=1, capture_workers=1,
                       cache=sim.TraceStore(disk_dir=args.store))
    try:
        lines, failures, reports = run_window(args.first, args.count, pool)
    finally:
        pool.shutdown()
    print("\n".join(lines))
    print(json.dumps(summary(failures, reports, pool), sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
