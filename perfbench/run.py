"""Fresh-process benchmark of the AraXL reproduction.

One command runs one workload and prints every metric by name with its
unit, then one JSON result line::

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 24 \\
        --trace 0

``--trace 0`` times fresh ``python -m repro.eval`` (or ``fuzzrun.py``)
child processes with tracing off and reports the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once in-process with
every layer's entry point wrapped (:mod:`tracer`) and reports the
per-layer metrics.  Every run checks the rendered output against the
reference digests in ``reference.json``.  See ``README.md`` for the
workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and child output, removed after every run.
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("paper-warm", "paper-cold-pooled", "fuzz-cold")
#: Fuzz seeds per window (one fresh process) at each scale.
FUZZ_SEEDS = {"paper": 200, "reduced": 8}
#: Fresh ``import repro.eval`` processes whose median is one sample.
IMPORT_SAMPLES = 5
#: Hard stop for the whole run, below the 180 s a run may take.
RUN_BUDGET_S = 165.0

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("sim_insns_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``).
#: Units other than ``s`` and ``1`` mark counts, which repeat exactly
#: between two traced runs of one workload and seed (see
#: :func:`repeating_counts`).
PER_LAYER = (
    ("eval.import_s", "s", "lower"),
    ("eval.render_s", "s", "lower"),
    ("eval.static_s", "s", "lower"),
    ("parallel.run_self_s", "s", "lower"),
    ("parallel.capture_work_s", "s", "lower"),
    ("parallel.replay_work_s", "s", "lower"),
    ("parallel.busy_ratio", "1", "higher"),
    ("parallel.recovered_total", "count", "lower"),
    ("trace_store.get_s", "s", "lower"),
    ("trace_store.mem_hits", "count", "higher"),
    ("trace_store.disk_hits", "count", "lower"),
    ("trace_store.misses", "count", "lower"),
    ("trace_store.disk_reads_per_key", "reads/key", "lower"),
    ("trace_store.put_s", "s", "lower"),
    ("trace_store.puts", "count", "lower"),
    ("trace_store.disk_bytes", "bytes", "lower"),
    ("trace_pack.materialize_s", "s", "lower"),
    ("trace_pack.materializations", "count", "lower"),
    ("trace_pack.pack_s", "s", "lower"),
    ("functional.run_s", "s", "lower"),
    ("functional.runs", "count", "lower"),
    ("functional.retired", "insns", "lower"),
    ("functional.runtime_warnings", "count", "lower"),
    ("kernels.capture_self_s", "s", "lower"),
    ("kernels.golden_builds", "count", "lower"),
    ("replay_plan.compile_s", "s", "lower"),
    ("replay_plan.compiles", "count", "lower"),
    ("replay_plan.compiles_per_trace", "compiles/key", "lower"),
    ("replay_plan.machine_rows_s", "s", "lower"),
    ("replay_plan.machine_rows_calls", "count", "lower"),
    ("engine.replay_self_s", "s", "lower"),
    ("engine.replays", "count", "lower"),
    ("engine.replay_reference_s", "s", "lower"),
    ("fuzz.generate_s", "s", "lower"),
    ("fuzz.check_self_s", "s", "lower"),
    ("model.sim_cycles_total", "cycles", "lower"),
    ("model.vector_insns_total", "insns", "lower"),
    ("model.issue_stall_cycles_total", "cycles", "lower"),
    ("model.paper_claim_err", "rel", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)

#: Counts that depend on pool scheduling, hence may differ between two
#: traced runs: the pooled parent adopts worker captures in completion
#: order, which decides what its in-memory LRU still holds when a later
#: sweep reads the same keys (memory hit or disk re-read).
SCHEDULING_DEPENDENT = {
    "paper-cold-pooled": frozenset({
        "trace_store.mem_hits", "trace_store.disk_hits",
        "trace_store.disk_reads_per_key", "trace_store.disk_bytes"}),
}


def repeating_counts(workload: str) -> list[str]:
    """Per-layer counts that must repeat exactly between traced runs."""
    skip = SCHEDULING_DEPENDENT.get(workload, frozenset())
    return [name for name, unit, _better in PER_LAYER
            if unit not in ("s", "1") and name not in skip]


#: Stats trailer lines ``--store-stats`` appends after the tables.
_TRAILERS = ("[trace store]", "[fault log]")


@dataclass
class Child:
    """Outcome of one fresh child process."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


def pool_workers() -> int:
    """W = min(2, schedulable CPUs) for the pooled workload."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    """The child environment: ``src`` on the path, no ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], work: Path, timeout_s: float) -> Child:
    """Run ``argv`` to completion in the checkout root.

    Wall time spans spawn to reap.  Peak RSS comes from ``wait4``: the
    largest resident set of the child and of every descendant it
    reaped (pool workers), i.e. the largest process in the tree.  The
    child leads its own process group, so a timeout kills the tree.
    """
    out_path = work / "child.out"
    err_path = work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(), start_new_session=True)
        killer = threading.Timer(timeout_s, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # interrupted: take the
            os.wait4(proc.pid, 0)                # tree down with us
            raise
        finally:
            killer.cancel()
            killer.join()  # no stray thread when a traced run forks
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(),
                 err_path.read_text(errors="replace"))


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Workload:
    """One workload at one scale: its set-up, child command and checks."""

    def __init__(self, name: str, seed: int, scale: str) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.scale = scale
        self.reference = json.loads(REFERENCE.read_text())[scale]
        self.workers = pool_workers()
        self.fuzz_count = FUZZ_SEEDS[scale]
        self.fuzz_first = seed * self.fuzz_count
        self.warm_store: Path | None = None

    @property
    def is_fuzz(self) -> bool:
        return self.name == "fuzz-cold"

    # -- set-up ----------------------------------------------------------
    def setup(self, work: Path, deadline: float) -> float:
        """Prepare the run; returns the set-up seconds.

        ``paper-warm`` warms one store with a pooled capture of every
        experiment a unit runs (timed once: it is a full capture).  The
        cold workloads need nothing but a fresh interpreter able to
        import the package, so their set-up is the median of a few
        fresh ``import repro.eval`` processes.
        """
        if self.name != "paper-warm":
            return import_seconds(work, deadline)
        self.warm_store = work / "warm-store"
        child = run_child(
            [sys.executable, "-m", "repro.eval", "all", "--scale", self.scale,
             "--workers", str(self.workers),
             "--capture-workers", str(self.workers),
             "--trace-store", str(self.warm_store)],
            work, remaining(deadline))
        if child.returncode != 0:
            raise RuntimeError(f"store warm-up failed:\n{child.stderr}")
        return child.wall_s

    def store_for_unit(self, work: Path) -> Path:
        """The store a unit runs against: warm, or a fresh empty one."""
        if self.warm_store is not None:
            return self.warm_store
        return Path(tempfile.mkdtemp(prefix="store-", dir=work))

    def cli_args(self, store: Path) -> list[str]:
        """``python -m repro.eval`` arguments of one paper unit."""
        workers = 1 if self.name == "paper-warm" else self.workers
        return ["all", "--scale", self.scale, "--workers", str(workers),
                "--capture-workers", str(workers),
                "--trace-store", str(store), "--store-stats"]

    def argv(self, store: Path) -> list[str]:
        """The fresh child process of one measured unit."""
        if self.is_fuzz:
            return [sys.executable, str(HERE / "fuzzrun.py"),
                    "--first", str(self.fuzz_first),
                    "--count", str(self.fuzz_count), "--store", str(store)]
        return [sys.executable, "-m", "repro.eval", *self.cli_args(store)]

    # -- output checks ---------------------------------------------------
    def check_paper(self, returncode: int, text: str) -> tuple[int, int]:
        """``(attempted, failed)`` experiments of one paper-run output.

        An experiment fails when its rendered section differs from the
        reference digest; every experiment fails when the run exited
        nonzero or recovered from any fault.
        """
        sections = self.reference["sections"]
        attempted = len(sections)
        body = strip_trailers(text).encode()
        match = re.search(r"^\[fault log\].* recovered_total=(\d+)", text,
                          re.MULTILINE)
        if returncode != 0 or match is None or int(match.group(1)) != 0:
            return attempted, attempted
        failed = 0
        offset = 0
        for _name, nbytes, digest in sections:
            chunk = body[offset:offset + nbytes]
            offset += nbytes
            if sha256(chunk) != digest:
                failed += 1
        if offset != len(body):
            failed = max(failed, 1)
        return attempted, failed

    def check_fuzz(self, returncode: int, text: str) -> tuple[int, int, dict]:
        """``(attempted, failed, summary)`` of one fuzz-window output."""
        attempted = self.fuzz_count
        try:
            summary = json.loads(text.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return attempted, attempted, {}
        failed = int(summary.get("failures", attempted))
        if (returncode not in (0, 1) or summary.get("recovered_total") != 0
                or summary.get("points") != 2 * self.fuzz_count):
            failed = attempted
        return attempted, failed, summary

    def check(self, child: Child) -> dict:
        """Checked result of one measured unit."""
        text = child.stdout.decode(errors="replace")
        if self.is_fuzz:
            attempted, failed, summary = self.check_fuzz(child.returncode,
                                                         text)
            points = summary.get("points", 0)
            insns = summary.get("sim_insns", 0)
        else:
            attempted, failed = self.check_paper(child.returncode, text)
            points = self.reference["points"]
            insns = self.reference["sim_insns"]
        return {"wall_s": child.wall_s, "rss_mb": child.rss_mb,
                "points": points, "sim_insns": insns,
                "attempted": attempted, "failed": failed, "text": text,
                "warnings": child.stderr.count("RuntimeWarning")}

    def run_unit(self, work: Path, deadline: float) -> dict:
        """One fresh-process run of the workload, checked."""
        store = self.store_for_unit(work)
        result = self.check(run_child(self.argv(store), work,
                                      remaining(deadline)))
        if store != self.warm_store:
            shutil.rmtree(store, ignore_errors=True)
        return result


def remaining(deadline: float) -> float:
    """Seconds left before ``deadline`` (at least one)."""
    return max(1.0, deadline - time.perf_counter())


def sha256(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def strip_trailers(text: str) -> str:
    """Rendered tables without the ``--store-stats`` trailer lines,
    which name the store directory and its ages."""
    return "\n".join(line for line in text.split("\n")
                     if not line.startswith(_TRAILERS))


def import_seconds(work: Path, deadline: float) -> float:
    """Median wall time of fresh ``import repro.eval`` processes."""
    walls = []
    for _ in range(IMPORT_SAMPLES):
        child = run_child([sys.executable, "-c", "import repro.eval"],
                          work, remaining(deadline))
        if child.returncode != 0:
            raise RuntimeError(f"import repro.eval failed:\n{child.stderr}")
        walls.append(child.wall_s)
    return statistics.median(walls)


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics.
# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, work: Path,
            deadline: float) -> dict:
    """Fresh-process units until ``seconds`` are spent; end-to-end."""
    setup_s = workload.setup(work, deadline)
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.run_unit(work, deadline))
        walls = [unit["wall_s"] for unit in units]
        typical = statistics.median(walls)
        now = time.perf_counter()
        if now - start + typical > seconds or now + typical > deadline:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(
            unit["points"] / unit["wall_s"] for unit in units),
        "sim_insns_per_s": statistics.median(
            unit["sim_insns"] / unit["wall_s"] for unit in units),
        "peak_rss_mb": statistics.median(unit["rss_mb"] for unit in units),
        "setup_s": setup_s,
    }
    return {"metrics": metrics,
            "attempted": sum(unit["attempted"] for unit in units),
            "failed": sum(unit["failed"] for unit in units)}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics.
# ----------------------------------------------------------------------
def traced_run(workload: Workload, store: Path):
    """Run the workload in-process under the tracer.

    Returns ``(tracer, wall seconds, rendered text, golden builds)``;
    the wall time includes importing the package, as a fresh child's
    does.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro.eval.__main__ as cli
    from repro import sim
    from repro.kernels.common import golden_builds

    import fuzzrun
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    builds_before = golden_builds()
    try:
        if workload.is_fuzz:
            pool = sim.SimPool(workers=1, capture_workers=1,
                               cache=sim.TraceStore(disk_dir=store))
            try:
                lines, failures, reports = fuzzrun.run_window(
                    workload.fuzz_first, workload.fuzz_count, pool)
            finally:
                pool.shutdown()
            text = "\n".join(lines) + "\n" + json.dumps(
                fuzzrun.summary(failures, reports, pool),
                sort_keys=True) + "\n"
        else:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                returncode = cli.main(workload.cli_args(store))
            text = buffer.getvalue()
            if returncode != 0:
                text += "\n[traced run exited nonzero]\n"
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    return tracer, wall, text, golden_builds() - builds_before


def paper_claim_err(tracer) -> float:
    """Max relative error of the simulated headline numbers vs the paper.

    The Fig 6 claims (``PAPER_FIG6_CLAIMS``) and Table III's 146 GFLOPs
    of 64L-AraXL, read from the traced run's own sweep results; 0 when
    the run made no such sweep (:func:`count_checks` fails a paper run
    without them).
    """
    from repro.eval.fig6_scaling import PAPER_FIG6_CLAIMS
    from repro.eval.table3_ppa import PAPER_TABLE3

    if not tracer.results["run_fig6"] or not tracer.results["run_table3"]:
        return 0.0
    points = tracer.results["run_fig6"][-1]
    errors = []
    for (kernel, claim_id), claim in sorted(PAPER_FIG6_CLAIMS.items()):
        what, machine_lanes, size = claim_id.split("_")
        point = next(p for p in points
                     if p.kernel == kernel and p.bytes_per_lane == int(size)
                     and p.machine == f"{machine_lanes}-AraXL")
        value = (point.utilization if what == "util"
                 else point.scaling_vs_8l_ara2)
        errors.append(abs(value - claim) / claim)
    claim = PAPER_TABLE3["64L-AraXL"]["gflops"]
    row = next(p for p in tracer.results["run_table3"][-1]
               if p.machine == "64L-AraXL")
    errors.append(abs(row.gflops - claim) / claim)
    return max(errors)


def layer_metrics(tracer, traced_wall: float, untraced: dict,
                  import_s: float, store: Path, golden: int) -> dict:
    """Every per-layer metric of one traced run."""
    own, inclusive, calls = tracer.self_times()
    caches = tracer.caches
    pools = tracer.pools
    keys = max(1, len(tracer.keys))
    disk_reads = (sum(cache.disk_hits for cache in caches)
                  + tracer.counts["remote_disk_reads"])
    work_s = sum(pool.pipeline_stats.capture_seconds
                 + pool.pipeline_stats.replay_seconds for pool in pools)
    run_wall = inclusive.get("parallel.run", 0.0)
    workers = max((pool.workers for pool in pools), default=1)
    recovered = sum(pool.fault_log.recovered_total()
                    + pool.cache.corrupt_purged + pool.cache.io_retries
                    + int(pool.cache.memory_only) for pool in pools)
    reports = tracer.reports
    return {
        "eval.import_s": import_s,
        "eval.render_s": own.get("eval.render", 0.0),
        "eval.static_s": inclusive.get("eval.experiment.static", 0.0),
        "parallel.run_self_s": own.get("parallel.run", 0.0),
        "parallel.capture_work_s": sum(
            pool.pipeline_stats.capture_seconds for pool in pools),
        "parallel.replay_work_s": sum(
            pool.pipeline_stats.replay_seconds for pool in pools),
        "parallel.busy_ratio": (work_s / (run_wall * workers)
                                if run_wall else 0.0),
        "parallel.recovered_total": recovered,
        "trace_store.get_s": (own.get("trace_store.get", 0.0)
                              + own.get("trace_store.ingest", 0.0)),
        "trace_store.mem_hits": sum(cache.hits for cache in caches),
        "trace_store.disk_hits": sum(cache.disk_hits for cache in caches),
        "trace_store.misses": sum(cache.misses for cache in caches),
        "trace_store.disk_reads_per_key": disk_reads / keys,
        "trace_store.put_s": own.get("trace_store.put", 0.0),
        "trace_store.puts": calls["trace_store.put"],
        "trace_store.disk_bytes": sum(
            path.stat().st_size for path in store.iterdir()),
        "trace_pack.materialize_s": own.get("trace_pack.materialize", 0.0),
        "trace_pack.materializations": calls["trace_pack.materialize"],
        "trace_pack.pack_s": own.get("trace_pack.pack", 0.0),
        "functional.run_s": own.get("functional.run", 0.0),
        "functional.runs": calls["functional.run"],
        "functional.retired": tracer.counts["retired"],
        "functional.runtime_warnings": untraced["warnings"],
        "kernels.capture_self_s": own.get("kernels.capture", 0.0),
        "kernels.golden_builds": golden,
        "replay_plan.compile_s": own.get("replay_plan.compile", 0.0),
        "replay_plan.compiles": calls["replay_plan.compile"],
        "replay_plan.compiles_per_trace":
            calls["replay_plan.compile"] / keys,
        "replay_plan.machine_rows_s": own.get("replay_plan.machine_rows",
                                              0.0),
        "replay_plan.machine_rows_calls": calls["replay_plan.machine_rows"],
        "engine.replay_self_s": own.get("engine.replay", 0.0),
        "engine.replays": calls["engine.replay"],
        "engine.replay_reference_s": own.get("engine.replay_reference",
                                             0.0),
        "fuzz.generate_s": own.get("fuzz.generate", 0.0),
        "fuzz.check_self_s": own.get("fuzz.check", 0.0),
        "model.sim_cycles_total": sum(r.cycles for r in reports),
        "model.vector_insns_total": sum(r.vector_instructions
                                        for r in reports),
        "model.issue_stall_cycles_total": sum(r.issue_stall_cycles
                                              for r in reports),
        "model.paper_claim_err": paper_claim_err(tracer),
        "trace.overhead_ratio": traced_wall / untraced["wall_s"],
    }


def count_checks(workload: Workload, tracer, metrics: dict) -> list[str]:
    """Invariants of the traced run's counts; returns the violations."""
    problems = [f"no entry point {entry}; its layer would read 0"
                for entry in tracer.missing]
    if not workload.is_fuzz:
        problems.extend(f"no {sweep} result for model.paper_claim_err"
                        for sweep in ("run_fig6", "run_table3")
                        if not tracer.results[sweep])
    points = len(tracer.reports)
    insns = sum(r.vector_instructions + r.scalar_instructions
                for r in tracer.reports)
    if workload.is_fuzz:
        expected_points = 2 * workload.fuzz_count
        expected_insns = None
    else:
        expected_points = workload.reference["points"]
        expected_insns = workload.reference["sim_insns"]
    if points != expected_points:
        problems.append(f"points {points} != {expected_points}")
    if expected_insns is not None and insns != expected_insns:
        problems.append(f"sim_insns {insns} != {expected_insns}")
    if metrics["parallel.recovered_total"] != 0:
        problems.append("the run recovered from faults")
    if workload.name == "paper-warm":
        if metrics["functional.runs"] != 0:
            problems.append("warm run executed functional captures")
        if metrics["trace_store.misses"] != 0:
            problems.append("warm run missed the store")
    if workload.name == "paper-cold-pooled":
        paid = sum(cache.misses + cache.remote_puts
                   for cache in tracer.caches)
        if paid != len(tracer.keys):
            problems.append(f"{paid} captures + remote puts for "
                            f"{len(tracer.keys)} distinct keys")
    return problems


def trace(workload: Workload, work: Path, deadline: float) -> dict:
    """Untraced unit + traced in-process run; per-layer metrics."""
    setup_s = workload.setup(work, deadline)
    # The cold workloads' set-up already is the import median.
    import_s = (setup_s if workload.warm_store is None
                else import_seconds(work, deadline))
    untraced = workload.run_unit(work, deadline)
    store = workload.store_for_unit(work)
    tracer, wall, text, golden = traced_run(workload, store)
    traced = workload.check(Child(0, wall, 0.0, text.encode(), ""))
    metrics = layer_metrics(tracer, wall, untraced, import_s, store, golden)
    problems = count_checks(workload, tracer, metrics)
    if strip_trailers(text) != strip_trailers(untraced["text"]):
        problems.append("traced render differs from the untraced render")
    for problem in problems:
        print(f"[check] {workload.name}: {problem}", file=sys.stderr)
    traced_failed = traced["attempted"] if problems else traced["failed"]
    return {"metrics": metrics,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced_failed}


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(
        description="Fresh-process benchmark of the AraXL reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the fuzz seed window; the paper "
                             "workloads are fixed and ignore it")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "reduced"),
                        default="paper",
                        help="reduced: small problems, for self-tests")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one workload; prints the metrics and the JSON result line."""
    args = build_parser().parse_args(argv)
    # A terminated benchmark unwinds, so child process trees are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "eval" / "__main__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    workload = Workload(args.workload, args.seed, args.scale)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            result = trace(workload, work, deadline)
            table = PER_LAYER
        else:
            result = measure(workload, args.seconds, work, deadline)
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit, _better in table}
    for name, entry in metrics.items():
        print(f"{args.workload:18s} {name:34s} {entry['value']!r:>24} "
              f"{entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
