"""Dynamic execution trace: the contract between functional and timing.

One record per retired instruction — a scalar instruction classified
for the CVA6 model, a ``vsetvli``, or a vector instruction with its
dynamic configuration and memory access — ordered as retired.  The
timing engine replays that stream against a machine model — it never
re-executes semantics, so functional correctness and cycle estimation
stay decoupled (the classic functional/timing split of architecture
simulators).

The functional executor writes the records straight into the columnar
layout of :mod:`repro.functional.trace_pack`; the event classes below
are the object view of the same records, built on demand
(:attr:`~repro.functional.trace_pack.PackedTrace.events`) for the
reference replay loop and golden checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..isa.instructions import Instruction, MemPattern


#: Every kind a retired scalar instruction is classified as; a kind's
#: position is its code in :class:`~repro.functional.plan.InstrPlan`.
#: A branch's code plus one is the taken form of the same branch.
SCALAR_KINDS = ("alu", "mul", "div", "fp", "branch", "branch_taken",
                "load", "store")


@dataclass(frozen=True, slots=True)
class MemAccess:
    """Shape of a vector memory access (addresses, not data)."""

    base: int
    stride: int  # bytes between consecutive elements
    count: int  # number of elements transferred
    ew_bytes: int  # element width in bytes
    pattern: MemPattern
    is_store: bool

    @property
    def total_bytes(self) -> int:
        return self.count * self.ew_bytes


class ScalarEvent:
    """A retired scalar instruction, classified for the CVA6 timing model.

    Hand-rolled (not a dataclass): materializing a trace builds one
    per scalar record, and plain ``__init__`` assignment is markedly
    cheaper than the frozen-dataclass ``object.__setattr__`` chain.
    Events are immutable by convention.
    """

    __slots__ = ("kind", "addr", "nbytes")

    def __init__(self, kind: str, addr: Optional[int] = None,
                 nbytes: int = 0) -> None:
        self.kind = kind  # alu | mul | div | fp | load | store | branch...
        self.addr = addr
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarEvent({self.kind!r}, addr={self.addr})"


class VsetvlEvent:
    """A vsetvli: costs a scalar cycle and reconfigures the vector unit."""

    __slots__ = ("vl", "sew", "lmul")

    def __init__(self, vl: int, sew: int, lmul: int) -> None:
        self.vl = vl
        self.sew = sew
        self.lmul = lmul

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VsetvlEvent(vl={self.vl}, sew={self.sew}, lmul={self.lmul})"


# repro-lint: disable=RL401  needs __dict__: cached_property + the
# timing engine's per-instance _tinfo decode cache live there
class VectorEvent:
    """A retired vector instruction with its dynamic configuration.

    Keeps an open ``__dict__`` (no slots): derived, replay-invariant
    quantities — ``spec``, ``flops``, the timing engine's decode tuple —
    are cached on the instance so replay-many pays decode once.
    """

    def __init__(self, instr: Instruction, vl: int, sew: int, lmul: int,
                 mem: Optional[MemAccess] = None,
                 slide_amount: int = 0) -> None:
        self.instr = instr
        self.vl = vl
        self.sew = sew
        self.lmul = lmul
        self.mem = mem
        #: For slides: the dynamic slide amount in elements.
        self.slide_amount = slide_amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorEvent({self.instr.mnemonic}, vl={self.vl})"

    @cached_property
    def spec(self):
        return self.instr.spec

    @cached_property
    def flops(self) -> float:
        return self.spec.flops * self.vl
