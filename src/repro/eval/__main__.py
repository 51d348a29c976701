"""Command-line experiment driver: ``python -m repro.eval fig6 table1``.

Runs paper experiments by id and prints the rendered tables.  The
simulation sweeps can attach to the suite-wide shared trace store
(``--trace-store DIR``, or ``$REPRO_TRACE_STORE``; the GC byte budget
comes from ``--store-bytes`` or ``$REPRO_TRACE_STORE_BYTES``), so a CLI
run both reuses and warms the same captures as the benchmark suite.
Machine selection is spec-driven: ``--machine NAME|PATH`` (repeatable)
resolves registry names or YAML spec files through
:mod:`repro.machine`, and ``--list-machines`` prints the registry.
"""

from __future__ import annotations

import argparse
import math
import sys

from ..env import ENV_FUZZ_SEEDS, ENV_STORE_DIR, read_env, read_env_count
from ..errors import ConfigError
from ..machine import get_machine, list_machines
from ..sim.parallel import SimPool
from ..sim.trace_store import TraceStore
from .runner import EXPERIMENTS, SIMULATION_EXPERIMENTS, run_experiment


def _job_timeout(value: str) -> float:
    """``--job-timeout`` parser: a finite, positive number of seconds."""
    seconds = float(value)
    if not 0 < seconds < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(
            "job timeout must be a finite number of seconds > 0")
    return seconds


def _workers(value: str) -> int | None:
    """``--workers auto`` -> None (autodetect), else a positive int."""
    if value == "auto":
        return None
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1 or 'auto'")
    return count


def _count(what: str, minimum: int):
    """Parser for an integer option: ``what`` must be >= ``minimum``."""
    def parse(value: str) -> int:
        count = int(value)
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}")
        return count

    parse.__name__ = what  # argparse names it in "invalid ... value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro.eval`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Run paper experiments and print the rendered tables.")
    # nargs="*" (not "+") so `--list-machines` works alone; main()
    # enforces "at least one experiment" and valid ids itself, because
    # argparse's choices= rejects an empty nargs="*" list outright.
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids to run: "
                             + ", ".join(sorted(EXPERIMENTS))
                             + ", 'all' to run every one, or 'fuzz' for "
                             "the seeded differential property sweep")
    parser.add_argument("--seeds", type=_count("seed count", 0),
                        default=None, metavar="N",
                        help="seed count for the 'fuzz' sweep (default: "
                             "$REPRO_FUZZ_SEEDS, else 25)")
    parser.add_argument("--fuzz-size", type=_count("fuzz size", 1),
                        default=40, metavar="N",
                        help="generated chunks per fuzz program "
                             "(default 40)")
    parser.add_argument("--features", default="all", metavar="SPEC",
                        help="fuzz generator feature set: 'all' or a "
                             "comma list (see docs/fuzzing.md)")
    parser.add_argument("--scale", default="paper",
                        choices=("paper", "reduced"),
                        help="problem-size scale for the simulation sweeps")
    parser.add_argument("--machine", action="append", default=None,
                        metavar="NAME|PATH", dest="machines",
                        help="machine selection for the simulation sweeps: "
                             "a registry name (see --list-machines) or a "
                             "path to a machine-spec YAML file; repeat the "
                             "flag to sweep several machines (default: each "
                             "experiment's paper machines)")
    parser.add_argument("--list-machines", action="store_true",
                        help="print the machine registry (name, family, "
                             "lanes, spec fingerprint) and exit")
    parser.add_argument("--workers", type=_workers, default=1,
                        metavar="N|auto",
                        help="total worker-process budget of the shared "
                             "capture/replay pool (default 1: in-process; "
                             "'auto' sizes to the host CPUs)")
    parser.add_argument("--capture-workers", type=_workers, default=1,
                        metavar="N|auto",
                        help="soft share of the --workers budget the capture "
                             "phase may hold while replays are pending "
                             "(default 1: captures stay in-process; clamped "
                             "to the budget); captures stream into the "
                             "shared pool's replay jobs as traces land")
    parser.add_argument("--job-timeout", type=_job_timeout, default=None,
                        metavar="SECONDS",
                        help="per-job deadline on the shared pool: a pooled "
                             "capture/replay job running longer is treated "
                             "as hung, its worker abandoned and the job "
                             "reassigned (default: no deadline)")
    parser.add_argument("--trace-store", default=None, metavar="DIR",
                        help="shared trace-store directory (default: "
                             "$REPRO_TRACE_STORE, else no disk store)")
    parser.add_argument("--store-bytes",
                        type=_count("store byte budget", 0), default=None,
                        metavar="BYTES",
                        help="GC byte budget for the shared store (default: "
                             "$REPRO_TRACE_STORE_BYTES, else 256 MiB)")
    parser.add_argument("--gc", action="store_true",
                        help="run the store's GC pass before the experiments")
    parser.add_argument("--store-stats", action="store_true",
                        help="print the shared store's manifest stats after "
                             "the experiments")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_machines:
        for spec in list_machines().values():
            print(f"{spec.name:12s} family={spec.family:6s} "
                  f"lanes={spec.lanes:<3d} fingerprint={spec.fingerprint}")
        return 0

    # 'fuzz' is deliberately not an EXPERIMENTS entry: the registry's
    # simulation/static partition describes paper artifacts, while the
    # fuzz sweep is a property harness with its own seed arguments.
    valid = set(EXPERIMENTS) | {"all", "fuzz"}
    unknown = [name for name in args.experiments if name not in valid]
    if unknown:
        parser.error(f"unknown experiment(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(sorted(valid))}")
    if not args.experiments:
        parser.error("no experiments requested (pass ids like 'fig6' or "
                     "'all', or use --list-machines)")
    run_fuzz_sweep = "fuzz" in args.experiments
    names = sorted(EXPERIMENTS) if "all" in args.experiments \
        else [name for name in dict.fromkeys(args.experiments)
              if name != "fuzz"]

    # Resolve --machine arguments (registry names or spec-file paths)
    # up front so a typo fails before any simulation work starts.
    machines = None
    if args.machines:
        try:
            machines = [get_machine(arg) for arg in args.machines]
        except ConfigError as exc:
            parser.error(str(exc))

    # A malformed $REPRO_TRACE_STORE_BYTES or $REPRO_FUZZ_SEEDS is a
    # usage error, reported before any simulation work starts.
    store = None
    seeds = args.seeds
    try:
        if args.trace_store is not None or read_env(ENV_STORE_DIR):
            store = TraceStore(disk_dir=args.trace_store,
                               max_bytes=args.store_bytes)
        if run_fuzz_sweep and seeds is None:
            seeds = read_env_count(ENV_FUZZ_SEEDS)
    except ConfigError as exc:
        parser.error(str(exc))
    if store is None and (args.gc or args.store_stats
                          or args.store_bytes is not None):
        # No store is configured and the documented default is "no disk
        # store" — don't invent one just to report on it, and say so
        # rather than silently dropping the store-related flags.
        print(f"[trace store] none configured (use --trace-store or "
              f"${ENV_STORE_DIR}); --gc/--store-stats/--store-bytes "
              f"ignored", file=sys.stderr)
    if args.gc and store is not None:
        summary = store.gc()
        print(f"[trace store gc] {summary}")

    # One shared SimPool carries every simulation sweep, so its fault
    # log aggregates recoveries across the whole invocation (and its
    # executor — including any rebuilt replacement — is reused).
    pool = None
    if run_fuzz_sweep or any(name in SIMULATION_EXPERIMENTS
                             for name in names):
        pool = SimPool(workers=args.workers,
                       capture_workers=args.capture_workers,
                       cache=store,
                       job_timeout=args.job_timeout)

    fuzz_failures = 0
    try:
        for name in names:
            text = run_experiment(name, scale=args.scale, pool=pool,
                                  machines=machines)
            print(text)
            print()
        if run_fuzz_sweep:
            from .fuzz import run_fuzz

            text, fuzz_failures = run_fuzz(
                seeds=25 if seeds is None else seeds, size=args.fuzz_size,
                features=args.features, machines=machines, pool=pool)
            print(text)
            print()
    finally:
        if pool is not None:
            pool.shutdown()

    if args.store_stats and store is not None:
        stats = store.store_stats
        print(f"[trace store] dir={stats['dir']} "
              f"entries={stats['disk_entries']} "
              f"bytes={stats['disk_bytes']} "
              f"oldest_age={stats['oldest_age_s']:.0f}s "
              f"served: mem={stats['hits']} disk={stats['disk_hits']} "
              f"captures={stats['misses']} "
              f"remote_captures={stats['remote_puts']} "
              f"corrupt_purged={stats['corrupt_purged']} "
              f"plan_loads={stats['plan_loads']} "
              f"plan_stale={stats['plan_stale']} "
              f"code_loads={stats['code_loads']}")
    if args.store_stats and pool is not None:
        fl = pool.fault_log
        cache = pool.cache
        recovered = (fl.recovered_total() + cache.corrupt_purged
                     + cache.io_retries + int(cache.memory_only))
        print(f"[fault log] crashes={fl.worker_crashes} "
              f"job_errors={fl.job_errors} "
              f"timeouts={fl.timeouts} retries={fl.retries} "
              f"rebuilds={fl.pool_rebuilds} "
              f"quarantined={fl.quarantined} fallbacks={fl.fallbacks} "
              f"serial_degradations={fl.serial_degradations} "
              f"corrupt_purged={cache.corrupt_purged} "
              f"io_retries={cache.io_retries} "
              f"memory_only={int(cache.memory_only)} "
              f"recovered_total={recovered}")
    return 1 if fuzz_failures else 0


if __name__ == "__main__":
    sys.exit(main())
