"""The differential properties every generated program must satisfy.

For each :class:`~repro.fuzz.gen.FuzzCase`, :func:`check_case` asserts —
per registry machine unless noted:

1. **replay-identity** — capturing the trace once and replaying it
   yields the same :class:`~repro.timing.report.TimingReport` as a
   direct end-to-end simulation, and two independent captures have
   byte-identical blobs (the golden check inside the run also compares
   the final memory against an independent reference execution);
2. **key-stability** — ``trace_key`` is equal across machines that share
   a VLEN (the key must be insensitive to everything else in the
   machine spec);
3. **plan-vs-reference** — the vectorized ``ReplayPlan`` fast path over
   the capture's columns produces a report equal to
   ``replay_reference`` over its materialized events.

Each capture's events are materialized once per check (the packed
trace caches them).

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
    """Check all three properties for ``case``; returns run statistics."""
    if configs is None:
        configs = default_configs()
    kernels = [kernel_for_case(case, config) for config in configs]

    # Property 2: the trace key must agree wherever VLEN agrees.
    by_vlen: dict[int, tuple] = {}
    for config, kernel in zip(configs, kernels):
        key = kernel.trace_key(config)
        prev = by_vlen.setdefault(config.vlen_bits, (config.name, key))
        _require(key == prev[1], "key-stability", case, config.name,
                 f"trace_key differs from {prev[0]} at equal "
                 f"VLEN={config.vlen_bits}: {key!r} != {prev[1]!r}")

    stats = {"seed": case.seed, "instructions": len(case.program),
             "events": {}, "cycles": {}}
    for config, kernel in zip(configs, kernels):
        name = config.name
        # Property 1: capture -> replay == direct simulation (the run
        # also performs the independent golden-memory check), and an
        # independent recapture writes a byte-identical blob.
        direct = kernel.run(config, verify=True)
        captured = kernel.capture(config, verify=False)
        replayed = replay_trace(config, captured)
        _require(replayed.timing == direct.timing, "replay-identity",
                 case, name,
                 f"replay of a fresh capture diverges from the direct "
                 f"run: {replayed.timing.cycles} != {direct.timing.cycles} "
                 f"cycles")
        packed = captured.trace
        recaptured = kernel.capture(config, verify=False)
        _require(recaptured.trace.blob == packed.blob,
                 "replay-identity", case, name,
                 "two independent captures have different blobs")

        # Property 3: the vectorized plan over the columns equals the
        # reference loop over the materialized events.
        model = build_model(config)
        reference = TimingEngine(model).replay_reference(packed.events)
        fast = TimingEngine(model).replay(packed)
        _require(fast == reference, "plan-vs-reference", case, name,
                 f"vectorized replay diverges from replay_reference: "
                 f"{fast.cycles} != {reference.cycles} cycles")

        stats["events"][name] = len(captured.trace)
        stats["cycles"][name] = direct.timing.cycles
    return stats


def check_seed(seed: int, size: int = 40, features: str = "all",
               max_avl: int = 64, configs=None) -> dict:
    """Generate the case for ``seed`` and check every property."""
    case = generate_case(seed, size=size, features=features,
                         max_avl=max_avl)
    return check_case(case, configs=configs)
