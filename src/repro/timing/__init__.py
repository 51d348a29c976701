"""Transaction-level cycle model (the "QuestaSim cycle" half).

The engine replays a captured trace (the columnar
:class:`~repro.functional.trace_pack.PackedTrace`, or a hand-built
:class:`~repro.functional.trace.DynamicTrace`) against a machine
description (:mod:`repro.uarch`).  Vector instructions become
streaming transactions on in-order unit resources; chaining is modelled
with linear element-availability streams, and the three AraXL interfaces
contribute their latencies exactly where the paper says they do.
"""

from .stream import Stream
from .resources import Resource
from .report import TimingReport
from .engine import TimingEngine

__all__ = ["Stream", "Resource", "TimingReport", "TimingEngine"]
