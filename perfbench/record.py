"""Record the benchmark's reference outputs and its trajectory points.

``reference`` renders every experiment in-process at both scales and
writes ``reference.json``: per-experiment byte length and SHA-256 of
the text ``python -m repro.eval all`` prints, plus the operating-point
and simulated-instruction counts of the whole sweep.  Re-record only
when a change is *meant* to alter the rendered tables::

    python3 perfbench/record.py reference

``trajectory`` runs ``run.py`` on every workload with ten distinct
seeds untraced and twice traced, prints each end-to-end metric's
median, quartiles and spread against its bound in ``BENCHMARK.json``,
checks that the traced counts repeat, and writes one trajectory point::

    python3 perfbench/record.py trajectory \\
        --out perfbench/trajectory/<commit>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench

BENCHMARK = bench.ROOT / "BENCHMARK.json"
#: Untraced runs (distinct seeds) per workload in a trajectory point.
RUNS = 10


def record_reference() -> dict:
    """Reference sections and counts at both scales (in-process)."""
    sys.path.insert(0, str(bench.SRC))
    from repro.eval.runner import EXPERIMENTS, run_experiment

    from tracer import Tracer, install

    reference = {}
    for scale in ("paper", "reduced"):
        tracer = Tracer()
        install(tracer)
        if tracer.missing:
            tracer.uninstall()
            raise RuntimeError(f"no entry points {tracer.missing}")
        try:
            sections = []
            for name in sorted(EXPERIMENTS):
                chunk = (run_experiment(name, scale=scale) + "\n\n").encode()
                sections.append([name, len(chunk), bench.sha256(chunk)])
        finally:
            tracer.uninstall()
        reference[scale] = {
            "sections": sections,
            "points": len(tracer.reports),
            "sim_insns": sum(r.vector_instructions + r.scalar_instructions
                             for r in tracer.reports),
        }
    return reference


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark invocation; its parsed JSON result line and the
    invocation's own duration (``_elapsed_s``)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()
            } | {"_correct": result["correct"],
                 "_attempted": result["attempted"],
                 "_failed": result["failed"],
                 "_elapsed_s": time.perf_counter() - start}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and quartile spread (share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def record_trajectory() -> dict:
    """Measure every workload; returns the trajectory point."""
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {name: unit for name, unit, _better in bench.PER_LAYER}
    point = {"host": {"nproc": len(os.sched_getaffinity(0)),
                      "python": platform.python_version(),
                      "machine": platform.machine()},
             "run_seconds": spec["run_seconds"], "runs": RUNS,
             "workloads": {}}
    for workload in bench.WORKLOADS:
        results = [run_once(workload, seed, spec["run_seconds"], 0)
                   for seed in range(1, RUNS + 1)]
        traced = [run_once(workload, 1, spec["run_seconds"], 1)
                  for _ in range(2)]
        end_to_end = {name: summarize([r[name] for r in results])
                      for name in bounds}
        repeats = all(traced[0][name] == traced[1][name]
                      for name in bench.repeating_counts(workload))
        point["workloads"][workload] = {
            "correct": all(r["_correct"] for r in results + traced),
            "failed": sum(r["_failed"] for r in results + traced),
            "attempted": sum(r["_attempted"] for r in results + traced),
            "end_to_end": end_to_end,
            "per_layer": {name: traced[0][name] for name in units},
            "per_layer_second_run": {name: traced[1][name]
                                     for name in units},
            "counts_repeat": repeats,
            "invocation_s": {"trace0": [r["_elapsed_s"] for r in results],
                             "trace1": [r["_elapsed_s"] for r in traced]},
        }
        for name, summary in end_to_end.items():
            print(f"{workload:18s} {name:16s} median {summary['median']:14.6g}"
                  f"  q1 {summary['q1']:14.6g}  q3 {summary['q3']:14.6g}"
                  f"  spread {summary['spread']:.4f}"
                  f"  bound {bounds[name]}  values "
                  f"{[round(v, 4) for v in summary['values']]}", flush=True)
        print(f"{workload:18s} counts repeat: {repeats}; correct: "
              f"{point['workloads'][workload]['correct']}; invocation "
              f"seconds {point['workloads'][workload]['invocation_s']}",
              flush=True)
    return point


def main(argv: list[str] | None = None) -> int:
    """``reference`` or ``trajectory``; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "trajectory"))
    parser.add_argument("--out", help="trajectory point file")
    args = parser.parse_args(argv)
    if args.what == "reference":
        data = record_reference()
        out = bench.REFERENCE
    else:
        if args.out is None:
            parser.error("trajectory needs --out")
        data = record_trajectory()
        out = Path(args.out)
        data["point"] = out.stem
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
