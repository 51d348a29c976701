"""Deterministic fault injection for the sim and store tiers.

The capture/replay pipeline promises byte-identical renders under any
pool sizing, cache state, *or failure*.  Proving the "or failure" part
needs faults that are (a) realistic — worker crashes, hangs, corrupted
disk payloads, ``ENOSPC`` — and (b) reproducible, so a chaos test that
fails once fails every time.  Real races give neither; this module gives
both.

A :class:`FaultPlan` is a frozen, picklable bundle of per-fault-class
rates plus a seed.  Every injection decision is a *pure function* of
``(seed, fault class, site token, attempt number)`` — a SHA-256 roll,
never ``random`` state — so decisions are independent of scheduling
order, process boundaries (the plan ships to pool workers via the
executor initializer), and how many other faults fired first.  Folding
the attempt number into the roll means a retry of the same job gets a
fresh decision, and the ``*_attempts`` caps let unit tests script exact
narratives like "the first attempt crashes, the retry succeeds".

Activation:

* ``SimPool(fault_plan=...)`` — worker crashes and hangs;
* ``TraceCache(fault_plan=...)`` / ``TraceStore(fault_plan=...)`` —
  corrupted envelope payloads, ``ENOSPC`` and transient ``OSError`` on
  disk writes;
* ``$REPRO_FAULT_PLAN`` (:data:`ENV_FAULT_PLAN`) — a spec string such
  as ``seed=7,crash=0.1,corrupt=0.2`` picked up by both tiers when no
  explicit plan is passed, which is how the CI chaos-smoke job drives
  ``python -m repro.eval`` without code changes.

:class:`FaultLog` is the other half of the contract: a structured count
of every fault the pipeline *recovered from* (retries, pool rebuilds,
quarantines, fallbacks, ...), surfaced through
:class:`~repro.sim.parallel.PipelineStats` so chaos tests can assert
each recovery path actually fired.  See ``docs/robustness.md`` for the
full fault taxonomy and recovery matrix.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Optional

# ENV_FAULT_PLAN is re-exported for the module's historical importers:
# the canonical definition (and all os.environ access) lives in the
# repro.env registry.
from ..env import ENV_FAULT_PLAN, read_env

#: Exit status used for injected worker crashes (distinguishable from a
#: genuine interpreter abort in worker logs).
CRASH_EXIT_STATUS = 87

#: Spec-string aliases: short knob name -> dataclass field.
_SPEC_FIELDS = {
    "seed": "seed",
    "crash": "crash_rate",
    "hang": "hang_rate",
    "corrupt": "corrupt_rate",
    "enospc": "enospc_rate",
    "io": "io_error_rate",
    "hang_s": "hang_seconds",
    "crash_n": "crash_attempts",
    "hang_n": "hang_attempts",
    "corrupt_n": "corrupt_attempts",
    "enospc_n": "enospc_attempts",
    "io_n": "io_attempts",
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic injection rates for every fault class.

    Rates are probabilities in ``[0, 1]`` evaluated by a pure hash roll
    per ``(fault class, site token, attempt)``; ``*_attempts`` caps
    restrict a fault class to attempt numbers below the cap (``None`` =
    every attempt is eligible), which is how tests force "fails once,
    then succeeds" narratives deterministically.
    """

    seed: int = 0
    #: Worker calls ``os._exit`` mid-job -> ``BrokenProcessPool``.
    crash_rate: float = 0.0
    #: Worker sleeps ``hang_seconds`` mid-job (tripping ``job_timeout``).
    hang_rate: float = 0.0
    #: Envelope payload bytes flipped *after* the CRC is computed.
    corrupt_rate: float = 0.0
    #: ``OSError(ENOSPC)`` raised on a disk write.
    enospc_rate: float = 0.0
    #: Transient ``OSError(EIO)`` raised on a disk write.
    io_error_rate: float = 0.0
    #: How long an injected hang sleeps.
    hang_seconds: float = 0.5
    crash_attempts: Optional[int] = None
    hang_attempts: Optional[int] = None
    corrupt_attempts: Optional[int] = None
    enospc_attempts: Optional[int] = None
    io_attempts: Optional[int] = None

    # -- decision engine ----------------------------------------------
    def roll(self, kind: str, token: str, attempt: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one decision."""
        material = f"{self.seed}:{kind}:{token}:{attempt}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def _fires(self, rate: float, cap: Optional[int],
               kind: str, token: str, attempt: int) -> bool:
        if rate <= 0.0:
            return False
        if cap is not None and attempt >= cap:
            return False
        return self.roll(kind, token, attempt) < rate

    # -- worker-side faults (sim tier) --------------------------------
    def should_crash(self, token: str, attempt: int = 0) -> bool:
        """Would this (job, attempt) crash its worker?"""
        return self._fires(self.crash_rate, self.crash_attempts,
                           "crash", token, attempt)

    def should_hang(self, token: str, attempt: int = 0) -> bool:
        """Would this (job, attempt) hang its worker?"""
        return self._fires(self.hang_rate, self.hang_attempts,
                           "hang", token, attempt)

    def inject_job_faults(self, token: str, attempt: int = 0) -> None:
        """Crash (``os._exit``) or hang (sleep) per the plan.

        Called from pool worker processes at job entry; the in-process
        fallback paths never call it, so injected faults are always
        recoverable by design.
        """
        if self.should_crash(token, attempt):
            os._exit(CRASH_EXIT_STATUS)
        if self.should_hang(token, attempt):
            time.sleep(self.hang_seconds)

    # -- store-side faults (disk tier) --------------------------------
    def corrupted(self, token: str, attempt: int, payload: bytes) -> bytes:
        """Payload bytes, possibly bit-flipped (post-CRC) per the plan."""
        if not self._fires(self.corrupt_rate, self.corrupt_attempts,
                           "corrupt", token, attempt):
            return payload
        if not payload:
            return b"\xff"
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0xFF
        return bytes(mutated)

    def check_write(self, token: str, attempt: int = 0) -> None:
        """Raise the planned ``OSError`` for this disk write, if any."""
        if self._fires(self.enospc_rate, self.enospc_attempts,
                       "enospc", token, attempt):
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if self._fires(self.io_error_rate, self.io_attempts,
                       "io", token, attempt):
            raise OSError(errno.EIO, "injected: transient I/O error")

    # -- spec strings -------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"seed=7,crash=0.1,corrupt=0.2,..."`` into a plan.

        Knobs: ``seed``, the rates ``crash``/``hang``/``corrupt``/
        ``enospc``/``io``, ``hang_s`` (hang duration), and the attempt
        caps ``crash_n``/``hang_n``/``corrupt_n``/``enospc_n``/``io_n``.
        Unknown knobs raise ``ValueError`` so a typo'd CI spec fails
        loudly instead of silently injecting nothing.
        """
        kwargs: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"fault spec item without '=': {item!r}")
            try:
                fname = _SPEC_FIELDS[name.strip()]
            except KeyError:
                raise ValueError(f"unknown fault spec knob: {name!r}") \
                    from None
            if fname == "seed" or fname.endswith("_attempts"):
                kwargs[fname] = int(value)
            else:
                kwargs[fname] = float(value)
        return cls(**kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (non-default knobs only)."""
        parts = []
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for name, fname in _SPEC_FIELDS.items():
            value = getattr(self, fname)
            if value == defaults[fname]:
                continue
            parts.append(f"{name}={value}")
        return ",".join(parts)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """Plan from ``$REPRO_FAULT_PLAN``, or ``None`` when unset."""
        spec = read_env(ENV_FAULT_PLAN, environ)
        if not spec:
            return None
        return cls.from_spec(spec)


@dataclass
class FaultLog:
    """Structured count of faults the pipeline observed and recovered.

    Attached to :class:`~repro.sim.parallel.PipelineStats` as
    ``.faults`` — every counter here names a *recovery path*, so a chaos
    test asserting ``retries > 0 and pool_rebuilds > 0`` is asserting
    those paths genuinely executed, not merely that nothing raised.
    """

    #: Jobs lost to a broken executor (``BrokenProcessPool`` family).
    worker_crashes: int = 0
    #: Jobs that raised any other exception inside the pool.
    job_errors: int = 0
    #: Jobs abandoned after exceeding their ``job_timeout`` deadline.
    timeouts: int = 0
    #: Failed jobs resubmitted to the pool (bounded: once per job).
    retries: int = 0
    #: Fresh executors built after a broken one was retired.
    pool_rebuilds: int = 0
    #: Jobs that failed twice and were forced in-process (poison jobs).
    quarantined: int = 0
    #: Jobs ultimately served by the in-process fallback.
    fallbacks: int = 0
    #: Whole-sweep downgrades to serial in-process execution.
    serial_degradations: int = 0
    #: Exception type name -> occurrence count (never swallowed silently).
    error_types: dict = field(default_factory=dict)
    #: Cache keys of quarantined jobs, for post-mortem flagging.
    quarantined_keys: list = field(default_factory=list)

    def note_error(self, exc: BaseException) -> None:
        """Record one classified exception by type name."""
        name = type(exc).__name__
        self.error_types[name] = self.error_types.get(name, 0) + 1

    def recovered_total(self) -> int:
        """Total recovery actions taken (0 in a fault-free run)."""
        return (self.timeouts + self.retries + self.pool_rebuilds
                + self.quarantined + self.fallbacks
                + self.serial_degradations)

    def as_dict(self) -> dict:
        """Flat dict view (for stats lines and benchmark tables)."""
        return {
            "worker_crashes": self.worker_crashes,
            "job_errors": self.job_errors,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": self.quarantined,
            "fallbacks": self.fallbacks,
            "serial_degradations": self.serial_degradations,
            "error_types": dict(self.error_types),
        }


class JobTimeout(Exception):
    """A pooled job exceeded its deadline and was abandoned."""
