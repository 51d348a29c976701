"""``python -m repro.eval fuzz``: the seeded differential fuzz sweep.

Runs ``--seeds`` generated programs through **both** halves of the
machinery:

1. the standard capture pipeline — every seed becomes an unverified
   :class:`~repro.sim.parallel.CaptureTask` for the ``"fuzz"`` zoo
   kernel, routed through :func:`~repro.sim.parallel.run_pipeline` on
   the shared :class:`~repro.sim.parallel.SimPool` (so a warm trace
   store serves fuzz captures exactly like curated-kernel captures);
2. the in-process property harness — each seed's case from
   :func:`repro.fuzz.kernel.generate_case` goes through
   :func:`repro.fuzz.properties.check_case`, which asserts the three
   differential properties on every requested machine.  Its direct run
   is the checked execution: it applies the independent golden check.

A property failure triggers the minimizing shrink loop and the run
prints the minimal reproducer program plus the seed that regenerates
it.
"""

from __future__ import annotations

from typing import Sequence

from ..fuzz.kernel import generate_case
from ..fuzz.properties import (PropertyFailure, check_case, default_configs)
from ..fuzz.shrink import shrink_case
from ..params import SystemConfig
from ..sim import CaptureTask, SimPool, run_pipeline

#: Problem scale of the fuzz sweep, in the suite's B/lane currency:
#: clamped to AVL by the fuzz kernel builder (``max_avl = 64``).
FUZZ_BYTES_PER_LANE = 64

#: Default generated-program length (top-level chunks per program).
FUZZ_SIZE = 40


def _shrink_failure(failure: PropertyFailure, configs) -> str:
    """Minimize the failing case; returns the reproducer report."""
    original = failure.property

    def predicate(candidate):
        try:
            check_case(candidate, configs=configs)
        except PropertyFailure as exc:
            return exc if exc.property == original else None
        return None

    return shrink_case(failure.case, predicate).report()


def run_fuzz(seeds: int = 25, size: int = FUZZ_SIZE, features: str = "all",
             bytes_per_lane: int = FUZZ_BYTES_PER_LANE,
             machines: Sequence[SystemConfig] | None = None,
             pool: SimPool | None = None) -> tuple[str, int]:
    """Run the fuzz sweep; returns ``(rendered report, failure count)``.

    ``machines`` defaults to the registry pair sharing one VLEN
    (``8L-Ara2``/``8L-AraXL``), which is what makes the key-stability
    property observable; captures are deduplicated per VLEN, so the
    default pair shares one capture per seed.
    """
    configs = list(machines) if machines else default_configs()
    kwargs = {"seed": 0, "size": size, "features": features}

    # Phase 1: every seed through the standard capture/replay pipeline.
    captures: list[CaptureTask] = []
    replays = []
    capture_index: dict[tuple, int] = {}
    for seed in range(seeds):
        for config in configs:
            point = (seed, config.vlen_bits)
            if point not in capture_index:
                capture_index[point] = len(captures)
                # verify=False like the curated sweeps: a warm store then
                # serves every capture from disk (a verified capture
                # never reads the cache); the property phase below
                # re-runs each seed fully verified in-process anyway.
                captures.append(CaptureTask.for_kernel(
                    "fuzz", config, bytes_per_lane,
                    {**kwargs, "seed": seed}))
            replays.append((config, capture_index[point]))
    reports = run_pipeline(captures, replays, pool)

    # Phase 2: the three differential properties, per seed, in-process.
    failures: list[str] = []
    instructions = 0
    for seed in range(seeds):
        case = generate_case(seed, size=size, features=features,
                             max_avl=min(max(int(bytes_per_lane), 1), 256))
        instructions += len(case.program)
        try:
            check_case(case, configs=configs)
        except PropertyFailure as failure:
            failures.append(_shrink_failure(failure, configs))

    names = ", ".join(config.name for config in configs)
    lines = [
        f"fuzz: {seeds} seeds x {len(configs)} machines ({names}), "
        f"size={size}, features={features}, B/lane={bytes_per_lane}",
        f"  pipeline: {len(captures)} captures, {len(reports)} replays "
        f"(shared per VLEN), {instructions} generated instructions",
        f"  properties: replay-identity, key-stability, plan-vs-reference "
        f"on every machine",
    ]
    if failures:
        lines.append(f"  FAILURES: {len(failures)} seed(s)")
        lines.extend(failures)
    else:
        lines.append(f"  all {seeds} seeds hold on every machine")
    return "\n".join(lines), len(failures)
