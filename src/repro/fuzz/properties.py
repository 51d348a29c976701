"""The differential properties every generated program must satisfy.

For each :class:`~repro.fuzz.gen.FuzzCase`, :func:`check_case` asserts
three properties.  Machines of one VLEN execute the same program to the
same trace (the executor sees only ``vlen_bits``), so the configs are
grouped by VLEN, in ``configs`` order, and each group's functional work
is done once: one direct run (capture + replay, with the golden check)
and one fresh capture.  The timing checks then run on **every** machine
of the group:

1. **replay-identity** — replaying the fresh capture yields the same
   :class:`~repro.timing.report.TimingReport` as the direct end-to-end
   simulation (on the group's first machine the direct run's own
   report, on the others a replay of the direct run's trace), and the
   direct run's capture — an independent execution — has a blob
   byte-identical to the fresh capture's (the golden check inside the
   direct run also compares the final memory against an independent
   reference execution);
2. **key-stability** — ``trace_key`` is equal across machines that share
   a VLEN (the key must be insensitive to everything else in the
   machine spec); it is what lets a group share one capture;
3. **plan-vs-reference** — the vectorized ``ReplayPlan`` fast path over
   the capture's columns produces a report equal to
   ``replay_reference`` over its materialized events.

The capture's events are materialized once per group (the packed trace
caches them), and the reference image is memoized per seed, program
and VLEN (:mod:`repro.fuzz.kernel`), so the pipeline phase of
``eval fuzz`` and this harness share it.

Failures raise :class:`PropertyFailure`, which carries the case so the
shrink loop (:mod:`repro.fuzz.shrink`) can minimize the reproducer.
"""

from __future__ import annotations

from ..machine import get_machine
from ..sim import replay_trace
from ..timing.engine import TimingEngine
from ..uarch import build_model
from .gen import FuzzCase
from .kernel import generate_case, kernel_for_case

#: Default machine pair: same lane count (so equal VLEN — required by
#: the key-stability property) but different families, hence entirely
#: different interconnect/timing specs.
DEFAULT_MACHINES = ("8L-Ara2", "8L-AraXL")


class PropertyFailure(AssertionError):
    """One property violated by one generated case."""

    def __init__(self, prop: str, case: FuzzCase, machine: str,
                 detail: str) -> None:
        self.property = prop
        self.case = case
        self.machine = machine
        self.detail = detail
        super().__init__(
            f"fuzz property {prop!r} failed on {machine} for seed "
            f"{case.seed} (size={case.size}, features={case.features!r}, "
            f"max_avl={case.max_avl}): {detail}")


def default_configs() -> list:
    """The resolved default machine pair."""
    return [get_machine(name) for name in DEFAULT_MACHINES]


def _require(ok: bool, prop: str, case: FuzzCase, machine: str,
             detail: str) -> None:
    if not ok:
        raise PropertyFailure(prop, case, machine, detail)


def check_case(case: FuzzCase, configs=None) -> dict:
    """Check all three properties for ``case``; returns run statistics.

    The functional work is done once per VLEN group (machines of one
    VLEN execute the same trace); the timing checks run on every
    machine of the group.
    """
    if configs is None:
        configs = default_configs()
    kernels = [kernel_for_case(case, config) for config in configs]

    # Property 2: the trace key must agree wherever VLEN agrees.
    by_vlen: dict[int, tuple] = {}
    groups: dict[int, list] = {}
    for config, kernel in zip(configs, kernels):
        key = kernel.trace_key(config)
        prev = by_vlen.setdefault(config.vlen_bits, (config.name, key))
        _require(key == prev[1], "key-stability", case, config.name,
                 f"trace_key differs from {prev[0]} at equal "
                 f"VLEN={config.vlen_bits}: {key!r} != {prev[1]!r}")
        groups.setdefault(config.vlen_bits, []).append((config, kernel))

    stats = {"seed": case.seed, "instructions": len(case.program),
             "events": {}, "cycles": {}}
    for group in groups.values():
        _check_group(case, group, stats)
    return stats


def _check_group(case: FuzzCase, group: list, stats: dict) -> None:
    """Properties 1 and 3 on every machine of one VLEN group."""
    first, kernel = group[0]
    # Property 1: the direct run (capture + replay, plus the
    # independent golden-memory check) and a fresh capture write
    # byte-identical blobs, and replaying the capture reproduces the
    # direct timing.
    direct = kernel.run(first, verify=True)
    captured = kernel.capture(first, verify=False)
    packed = captured.trace
    _require(direct.functional.trace.blob == packed.blob,
             "replay-identity", case, first.name,
             "two independent captures have different blobs")
    for config, _ in group:
        name = config.name
        timing = direct.timing if config is first \
            else replay_trace(config, direct.functional).timing
        replayed = replay_trace(config, captured).timing
        _require(replayed == timing, "replay-identity", case, name,
                 f"replay of a fresh capture diverges from the direct "
                 f"run: {replayed.cycles} != {timing.cycles} cycles")

        # Property 3: the vectorized plan over the columns equals the
        # reference loop over the materialized events.
        reference = TimingEngine(build_model(config)).replay_reference(
            packed.events)
        _require(replayed == reference, "plan-vs-reference", case, name,
                 f"vectorized replay diverges from replay_reference: "
                 f"{replayed.cycles} != {reference.cycles} cycles")

        stats["events"][name] = len(packed)
        stats["cycles"][name] = timing.cycles


def check_seed(seed: int, size: int = 40, features: str = "all",
               max_avl: int = 64, configs=None) -> dict:
    """Generate the case for ``seed`` and check every property."""
    case = generate_case(seed, size=size, features=features,
                         max_avl=max_avl)
    return check_case(case, configs=configs)
