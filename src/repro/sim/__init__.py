"""User-facing simulation facade.

:class:`~repro.sim.simulator.Simulator` exposes the trace-once /
replay-many pipeline: :meth:`~repro.sim.simulator.Simulator.capture`
produces a machine-independent trace, :func:`~repro.sim.simulator
.replay_trace` times it on any machine model, and ``run`` does both in
one call, returning a :class:`~repro.sim.result.RunResult` with the
architectural outcome and the cycle-level report.  Captured traces are
shared across operating points via
:class:`~repro.sim.trace_cache.TraceCache` — and across the whole
benchmark suite via the disk-backed, garbage-collected
:class:`~repro.sim.trace_store.TraceStore` — and both sweep phases fan
out over one shared worker pool via :mod:`repro.sim.parallel`:
:class:`~repro.sim.parallel.SimPool` executes tagged capture/replay
jobs inside a single ``workers=`` process budget, and its one scheduling
pass (:meth:`~repro.sim.parallel.SimPool.run`, which
:func:`~repro.sim.parallel.run_pipeline` calls on a default pool)
streams each capture's replays into the pool as its trace lands.

Fault tolerance lives in :mod:`repro.sim.faults`: a seeded
:class:`~repro.sim.faults.FaultPlan` deterministically injects worker
crashes/hangs and store-tier corruption/``ENOSPC`` so the pool's
recovery ladder (retry, executor rebuild, quarantine, serial
degradation — all counted in a :class:`~repro.sim.faults.FaultLog`)
is provable in tests and CI.
"""

from .simulator import Simulator, replay_trace, run_program
from .result import RunResult
from .faults import FaultLog, FaultPlan
from .trace_cache import TraceCache, trace_key
from .trace_store import TraceStore, attach_store, resolve_store_dir
from .parallel import (CaptureTask, PipelineStats, SimPool,
                       autodetect_workers, run_pipeline)

__all__ = ["CaptureTask", "FaultLog", "FaultPlan", "PipelineStats",
           "Simulator", "RunResult", "SimPool", "TraceCache", "TraceStore",
           "attach_store", "autodetect_workers", "replay_trace",
           "resolve_store_dir", "run_pipeline", "run_program", "trace_key"]
