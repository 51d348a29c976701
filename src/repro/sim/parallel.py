"""Parallel capture and replay: one shared pool, one job kind.

:meth:`~repro.sim.simulator.Simulator.capture` and
:class:`~repro.timing.engine.TimingEngine` replay are independent: one
captured :class:`~repro.functional.executor.ExecResult` replays against
any number of machine models, each replay bit-identical to a fresh
end-to-end run.  The paper's evaluation sweeps (Fig 6/7, Table I/III,
the ablations) are therefore embarrassingly parallel: captures of
distinct ``(program fingerprint, vlen_bits, setup)`` keys are
independent of everything, and replays of one capture are independent
of each other.

:class:`SimPool` owns one
:class:`~concurrent.futures.ProcessPoolExecutor` at a time, sized by
one ``workers=`` budget, and runs **point jobs** on it.  The executor
lives for one :meth:`SimPool.run`: it spawns on the run's first pooled
submission and is shut down when the run ends, so every pooled sweep
of an invocation forks its own workers.  A point job carries a
picklable :class:`CaptureTask`, the machine configs of its point and
an optional payload (the cache's replay-only entry).  The worker takes
the trace from the payload, else from its process-local cache or the
shared disk store, and captures it only when neither has it — through
the normal atomic-envelope :meth:`~repro.sim.trace_cache.TraceCache
.put`, which compiles the replay plan the job's replays then use.  So a
trace crosses no process boundary on its way from capture to replay,
and the parent unwraps no store entry: it records a worker's capture
with :meth:`~repro.sim.trace_cache.TraceCache.ingest_remote`, which
reads nothing.  Only without a shared disk store does the captured
entry ship back, so a memory-only parent cache still holds it.

Every sweep goes through :meth:`SimPool.run` (:func:`run_pipeline` only
supplies a default pool), one scheduling pass for every pool size.  It
groups the capture tasks by trace key, so tasks sharing a key run one
capture, and the replay entries by ``(capture, machine fingerprint)``,
so two machine definitions with one timing identity replay once.  With
``workers=1`` every point is captured and replayed in the parent, with
no executor at all.  Otherwise a tag-and-CRC probe sorts the keys:

* **cold** keys become point jobs that capture, while
  ``capture_workers > 1``; with ``capture_workers=1`` (the default) the
  parent captures them and submits point jobs that carry the payload or
  rely on the store;
* **warm** keys become point jobs that read the trace.  A warm key in
  the shared store ships no payload, so its configs split across
  however many pool slots are idle (a busy pool gets one job, a
  draining pool enough chunks to refill); a payload-carrying job stays
  whole, since every chunk would re-pipe the trace.

``capture_workers=`` is a **soft priority split**: while warm point
jobs are pending, at most ``min(capture_workers, workers)`` cold point
jobs are in flight; with none pending, cold jobs may fill the whole
budget.  Whatever the knobs, the total number of live worker processes
never exceeds ``workers=``, and rendered sweep output is
byte-identical: only scheduling changes, never results.

Both phases are instrumented: every point job (pooled or in-process)
reports its capture and replay wall-clock separately, summed in
:class:`PipelineStats` (:attr:`SimPool.pipeline_stats`), so benchmark
tables can report capture/replay work seconds — pipeline *efficiency*,
not just cache hit counts.  Each job also reports its worker's cache
counters; :attr:`SimPool.stats` aggregates them across the pool.

Fault tolerance (the full ladder lives in ``docs/robustness.md``):

* **Worker recapture** — a worker that finds a store entry gone or
  stale captures the key itself, and the parent records the capture
  once.  A ``verify=True`` task is captured, hence verified, exactly
  once, wherever that happens.
* **Classification, never silence** — every pooled-job exception is
  classified (``BrokenProcessPool`` family vs anything else) and
  counted by type in the pool's :class:`~repro.sim.faults.FaultLog`
  (``pool.pipeline_stats.faults``); ``KeyboardInterrupt`` /
  ``SystemExit`` re-raise cleanly out of the pipeline loop.
* **Bounded retry** — a failed point job is resubmitted to the pool
  exactly once (a fresh attempt number, so a seeded
  :class:`~repro.sim.faults.FaultPlan` can let the retry succeed).
* **Poison-job quarantine** — a job that fails twice is served in the
  parent (counted in ``FaultLog.fallbacks``) and its key is flagged in
  ``FaultLog.quarantined_keys``.  A job the pool cannot take is served
  in the parent too.
* **Executor rebuild** — a broken executor is retired (not reused: a
  ``BrokenProcessPool`` poisons every later submission) and the next
  submission builds a fresh one, up to :data:`MAX_REBUILDS` times; beyond
  that the whole sweep degrades to serial in-process execution and
  still completes byte-identically.
* **Deadlines** — ``job_timeout=`` (default off) bounds each pooled
  job's wall-clock; an expired job is abandoned (its worker may be
  hung — the process is terminated at shutdown) and handled like any
  other failure.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..functional.executor import ExecResult
from ..params import SystemConfig
from ..timing.report import TimingReport
from .faults import FaultLog, FaultPlan, JobTimeout
from .simulator import replay_trace
from .trace_cache import TraceCache, TraceKey, disk_path

#: Executor rebuilds allowed before a sweep degrades to serial.
MAX_REBUILDS = 3

#: A pipeline replay plan entry: ``(config, capture_index)``.
PipelineReplay = tuple


def autodetect_workers() -> int:
    """Worker count for this host: the schedulable CPU count, min 1."""
    count = None
    if hasattr(os, "process_cpu_count"):  # Python >= 3.13
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    return max(1, count or os.cpu_count() or 1)


def _in_store(cache: TraceCache, key: TraceKey) -> bool:
    """``key``'s entry sits in ``cache``'s disk store, where every pool
    worker can read it."""
    if cache.disk_dir is None or cache.memory_only:
        return False
    return disk_path(cache.disk_dir, key).exists()


# ----------------------------------------------------------------------
# Pipeline statistics: per-phase wall-clock.
# ----------------------------------------------------------------------
@dataclass
class PipelineStats:
    """Wall-clock instrumentation of one pool's capture/replay phases.

    ``*_points`` counts operating points served per phase (a job
    covering three configs contributes three replay points; tasks
    sharing a trace key are one capture point), and ``*_seconds`` sums
    the jobs' measured wall-clock.  Seconds are *work* seconds summed
    across workers — with N workers busy they accrue up to N times
    faster than the pipeline's elapsed time, which makes
    ``capture_seconds / capture_points`` a scheduling-independent
    per-point cost.
    """

    capture_points: int = 0
    capture_seconds: float = 0.0
    replay_points: int = 0
    replay_seconds: float = 0.0
    #: Structured fault/recovery counters (see FaultLog).
    faults: FaultLog = field(default_factory=FaultLog)

    def note(self, capture_points: int, capture_seconds: float,
             replay_points: int, replay_seconds: float) -> None:
        """Record one served point job, both phases."""
        self.capture_points += capture_points
        self.capture_seconds += capture_seconds
        self.replay_points += replay_points
        self.replay_seconds += replay_seconds


@dataclass
class _Job:
    """Parent-side bookkeeping for one point job.

    ``configs`` fill the result slots ``indices``.  ``points`` is the
    capture points the job serves: 1, or 0 for the second and later
    chunks of one key and for a key the parent already captured.
    ``cold`` jobs may capture (they count against ``capture_workers``).
    ``payload`` is the entry the job ships (None: the worker's cache or
    the store has it).  ``attempts`` numbers the submissions of this job
    (feeding the fault plan's deterministic per-attempt rolls) and
    ``deadline`` is the monotonic instant after which the job is
    abandoned (None = no ``job_timeout``).
    """

    key: TraceKey
    task: "CaptureTask"
    configs: list
    indices: list
    points: int = 1
    cold: bool = False
    payload: Optional[ExecResult] = None
    attempts: int = 0
    deadline: Optional[float] = None


def _merge_snapshot(per_worker: dict[int, dict], pid: int,
                    stats: dict) -> None:
    """Keep the newest cumulative cache snapshot per worker pid.

    A worker's counters only grow, but jobs complete (and their
    snapshots arrive) in arbitrary order, so the snapshot with the most
    lookups is the latest one — never let an earlier, smaller snapshot
    overwrite it.
    """
    def _total(s: dict) -> int:
        return sum(s.get(k, 0) for k in ("hits", "disk_hits", "misses"))

    previous = per_worker.get(pid)
    if previous is None or _total(stats) >= _total(previous):
        per_worker[pid] = stats


# ----------------------------------------------------------------------
# Worker side.  One process-local TraceCache per worker: with a disk_dir
# it reads the shared store and writes its captures through to it.
# ----------------------------------------------------------------------
_WORKER_CACHE: Optional[TraceCache] = None

#: The fault plan active in this worker process (None in the parent and
#: in fault-free workers) — injected crashes/hangs only ever happen in
#: pool workers, so every injected fault is recoverable by design.
_WORKER_FAULTS: Optional[FaultPlan] = None

#: Parent-side sentinel outcome: the pooled job raised or timed out.
_FAILED = object()


def _init_worker(disk_dir: Optional[str],
                 fault_plan: Optional[FaultPlan] = None) -> None:
    global _WORKER_CACHE, _WORKER_FAULTS
    # The worker cache shares the pool's fault plan, so store-tier
    # faults (corrupt payloads, ENOSPC) fire on worker write-throughs
    # with the same deterministic rolls as in the parent.
    _WORKER_CACHE = TraceCache(disk_dir=disk_dir, fault_plan=fault_plan)
    _WORKER_FAULTS = fault_plan


def _point_job(task: "CaptureTask", payload: Optional[ExecResult],
               configs: list[SystemConfig]):
    """Serve one point in a worker: its trace, then its replays.

    The trace is ``payload``, else the worker cache's entry (memory,
    then the shared store), else a capture here — which also covers an
    entry that vanished or went stale.  Returns ``(pid, captured here,
    entry, reports, cache stats, capture s, replay s)``, where ``entry``
    is the capture when it did not land in the shared store, else None.
    """
    t0 = time.perf_counter()
    cache = _WORKER_CACHE  # set by _init_worker in every pool worker
    run = task.build()
    captured, fresh = payload, False
    if captured is None:
        misses = cache.misses
        captured = run.capture(task.config, cache=cache, verify=task.verify)
        fresh = task.verify or cache.misses > misses
    t1 = time.perf_counter()
    reports = [replay_trace(config, captured).timing for config in configs]
    t2 = time.perf_counter()
    entry = None
    if fresh and not _in_store(cache, run.trace_key(task.config)):
        entry = captured
    return (os.getpid(), fresh, entry, reports, dict(cache.stats),
            t1 - t0, t2 - t1)


def _run_job(token: str, attempt: int, *args):
    """The pool's single entry point: one point job.

    ``token`` and ``attempt`` identify this (job, submission) pair for
    the fault plan's deterministic injection rolls — a retried job
    carries a fresh attempt number, so a plan can crash the first
    attempt and let the retry through.
    """
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.inject_job_faults(token, attempt)
    return _point_job(*args)


# ----------------------------------------------------------------------
# Capture task specs.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaptureTask:
    """One functional capture, specified by what to *build*, not by live
    objects: a :class:`~repro.kernels.common.KernelRun` holds closures
    (setup, golden check) that cannot cross a process boundary, so
    workers rebuild it from the kernel registry.  Builds are
    deterministic in these fields, hence worker and parent agree on the
    trace key and the captured trace bit-for-bit."""

    kernel: str
    config: SystemConfig
    bytes_per_lane: int
    kwargs: tuple = ()
    verify: bool = False

    @staticmethod
    def for_kernel(kernel: str, config: SystemConfig, bytes_per_lane: int,
                   kwargs: dict | None = None,
                   verify: bool = False) -> "CaptureTask":
        """Build a task spec from a kernel registry name and its knobs."""
        return CaptureTask(kernel=kernel, config=config,
                           bytes_per_lane=int(bytes_per_lane),
                           kwargs=tuple(sorted((kwargs or {}).items())),
                           verify=verify)

    def build(self):
        """(Re)build the kernel; memoized process-wide by the registry.

        Cheap since the lazy-golden split: building assembles (or
        fetches the memoized) program skeleton but never materializes
        golden arrays — those are built on first ``setup``/``check``
        use, i.e. only where a capture actually executes.
        """
        from ..kernels import zoo_builder  # deferred: kernels import repro.sim

        return zoo_builder(self.kernel)(self.config, self.bytes_per_lane,
                                        **dict(self.kwargs))

    def key(self) -> TraceKey:
        """The trace key this task's capture will land under."""
        return self.build().trace_key(self.config)


# ----------------------------------------------------------------------
# The shared pool.
# ----------------------------------------------------------------------
class SimPool:
    """One process pool executing point jobs.

    * ``workers=`` is the **total** process budget — the executor is
      sized by it, so the pool can never hold more than ``workers``
      live processes.  ``None`` autodetects the host's schedulable
      CPUs; ``1`` runs everything in-process with no executor,
      byte-identical to any pooled schedule.
    * ``capture_workers=`` is a **soft priority split**: while warm
      point jobs are pending, at most ``min(capture_workers, workers)``
      cold point jobs are in flight; with no warm jobs pending, cold
      jobs may fill the whole budget.  ``1`` (the default) captures in
      the parent process.  ``None`` autodetects (and is then clamped to
      the budget).
    * ``cache`` is the trace cache/store every capture goes through;
      its ``disk_dir`` (if any) is what lets workers share traces as
      disk envelopes instead of pipe payloads.

    The pool is lazy: the executor spawns on first pooled submission
    and is torn down at the end of each :meth:`run` (or explicitly via
    :meth:`shutdown` / ``with pool:``), so each sweep forks its own
    workers; only the cache, stats and fault log outlive a run.
    """

    def __init__(self, workers: int | None = 1,
                 capture_workers: int | None = 1,
                 cache: TraceCache | None = None,
                 fault_plan: Optional[FaultPlan] = None,
                 job_timeout: Optional[float] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None to autodetect)")
        if capture_workers is not None and capture_workers < 1:
            raise ValueError(
                "capture_workers must be >= 1 (or None to autodetect)")
        if job_timeout is not None and not 0 < job_timeout < math.inf:
            raise ValueError(
                "job_timeout must be a finite number of seconds > 0 "
                "(or None)")
        self.workers = autodetect_workers() if workers is None \
            else int(workers)
        split = autodetect_workers() if capture_workers is None \
            else int(capture_workers)
        #: The soft split, clamped to the budget: the cap on in-flight
        #: cold point jobs while warm ones are pending.
        self.capture_workers = max(1, min(split, self.workers))
        self.cache = cache if cache is not None else TraceCache()
        #: Fault plan shipped to pool workers (None unless configured
        #: explicitly or via $REPRO_FAULT_PLAN).
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        #: Per-job wall-clock deadline in seconds (None = no deadline).
        self.job_timeout = job_timeout
        self._executor: Optional[ProcessPoolExecutor] = None
        self._worker_stats: dict[int, dict] = {}
        #: Per-phase wall-clock.
        self.pipeline_stats = PipelineStats()
        #: Structured fault/recovery counters (alias of
        #: ``pipeline_stats.faults``).
        self.fault_log = self.pipeline_stats.faults
        # Fault-tolerance state: retired-but-unreclaimed executors, the
        # futures of abandoned (timed-out) jobs, executor break count,
        # and the serial-degradation latch.
        self._zombies: list = []
        self._abandoned: list = []
        self._breaks = 0
        self._serial_only = False

    # -- executor lifecycle --------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            disk_dir = str(self.cache.disk_dir) \
                if self.cache.disk_dir is not None else None
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(disk_dir, self.fault_plan))
        return self._executor

    def _retire_broken(self) -> None:
        """Retire a broken executor so the next submission rebuilds.

        A ``BrokenProcessPool`` poisons every later submission on the
        same executor, so it is moved to the zombie list (reclaimed at
        :meth:`shutdown` — tearing it down here could block mid-sweep)
        and the slot cleared for :meth:`_ensure_executor` to rebuild.
        After :data:`MAX_REBUILDS` rebuilds the pool latches serial-only:
        every subsequent job runs in the parent and the sweep still
        completes byte-identically.
        """
        executor = self._executor
        if executor is None or not getattr(executor, "_broken", False):
            return
        self._zombies.append(executor)
        self._executor = None
        self._breaks += 1
        if self._breaks > MAX_REBUILDS:
            if not self._serial_only:
                self._serial_only = True
                self.fault_log.serial_degradations += 1
        else:
            self.fault_log.pool_rebuilds += 1

    def _note_failure(self, exc: BaseException) -> None:
        """Classify one pooled-job failure into the fault log."""
        self.fault_log.note_error(exc)
        if isinstance(exc, JobTimeout):
            pass  # already counted in fault_log.timeouts at abandon time
        elif isinstance(exc, BrokenExecutor):
            self.fault_log.worker_crashes += 1
        else:
            self.fault_log.job_errors += 1
        self._retire_broken()

    def _submit_job(self, pending: dict, job: _Job) -> bool:
        """Submit one point job to the (possibly rebuilt) executor.

        Returns False — without raising — when the pool cannot take the
        job (serial-only latch, or the submission itself failed); the
        caller then serves the job in-process.  On success the job
        lands in ``pending`` with its deadline armed.
        """
        if self._serial_only:
            return False
        # Stable per-job identity for the fault plan's rolls.
        token = f"point:{job.key!r}|{job.indices[0] if job.indices else -1}" \
                f"x{len(job.indices)}"
        try:
            executor = self._ensure_executor()
            fut = executor.submit(_run_job, token, job.attempts, job.task,
                                  job.payload, job.configs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._note_failure(exc)
            return False
        if self.job_timeout is not None:
            job.deadline = time.monotonic() + self.job_timeout
        pending[fut] = job
        return True

    def _wait_done(self, pending: dict) -> tuple[set, set]:
        """Wait for completions; returns ``(done, expired)`` futures.

        A FIRST_COMPLETED wait, bounded by the earliest pending deadline
        (unbounded without a ``job_timeout``); jobs still running past
        their deadline come back in ``expired`` — their workers may be
        hung, so the futures are abandoned (and the processes terminated
        at :meth:`shutdown`), never joined.
        """
        while True:
            deadlines = [job.deadline for job in pending.values()
                         if job.deadline is not None]
            budget = None
            if deadlines:
                budget = max(0.0, min(deadlines) - time.monotonic())
            done, _ = wait(pending, timeout=budget,
                           return_when=FIRST_COMPLETED)
            if done:
                return done, set()
            now = time.monotonic()
            expired = {fut for fut, job in pending.items()
                       if job.deadline is not None and job.deadline <= now}
            if expired:
                return set(), expired
            if not pending:
                return set(), set()

    def _abandon(self, fut, job: _Job) -> JobTimeout:
        """Give up on one expired job; its worker may be hung.

        The future is left uncancelled on purpose: cancelling a queued
        work item from outside races the executor's own management
        thread, which (CPython 3.11) raises ``InvalidStateError`` if
        the pool breaks and it tries to fail an already-cancelled
        future.  :meth:`shutdown` cancels leftovers under the
        executor's lock instead; until then a queued abandoned job may
        still run, costing only wasted work — its result is never read.
        """
        self._abandoned.append(fut)
        self.fault_log.timeouts += 1
        exc = JobTimeout(
            f"point job exceeded job_timeout={self.job_timeout}s")
        self.fault_log.note_error(exc)
        return exc

    def shutdown(self) -> None:
        """Tear down the live executor and any retired (zombie) ones.

        ``wait=True`` matters: the teardown must leave no executor
        management threads or worker processes behind, because callers
        may ``fork`` afterwards (e.g. ``multiprocessing.Process`` in
        tests and benchmark drivers) and a fork taken while an executor
        thread holds one of its internal locks deadlocks the child.
        Pending futures are cancelled first, so the wait is bounded by
        the jobs already running — except abandoned (timed-out) jobs,
        whose workers may be hung forever: if any abandoned future is
        still unresolved, the executor's worker processes are
        terminated first so the bounded wait stays bounded.
        """
        executors = []
        if self._executor is not None:
            executors.append(self._executor)
            self._executor = None
        executors.extend(self._zombies)
        self._zombies = []
        hung = any(not fut.done() for fut in self._abandoned)
        self._abandoned = []
        for executor in executors:
            if hung:
                procs = getattr(executor, "_processes", None) or {}
                for proc in list(procs.values()):
                    try:
                        proc.terminate()
                    # repro-lint: disable=RL201  best-effort teardown of a
                    # maybe-dead process; no recovery path exists past here
                    except Exception:
                        pass  # already exited, or not a real process
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            # repro-lint: disable=RL201  best-effort teardown of a broken
            # executor; no recovery path exists past shutdown
            except Exception:
                pass  # a broken executor may refuse; nothing to keep

    def __enter__(self) -> "SimPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- serving points ------------------------------------------------
    def _serve_in_parent(self, job: _Job, results: list) -> ExecResult:
        """Capture (or cache-serve) and replay one job in the parent,
        timed per phase; returns the trace."""
        t0 = time.perf_counter()
        task = job.task
        captured = task.build().capture(task.config, cache=self.cache,
                                        verify=task.verify)
        t1 = time.perf_counter()
        for idx, config in zip(job.indices, job.configs):
            results[idx] = replay_trace(config, captured).timing
        self.pipeline_stats.note(job.points, t1 - t0, len(job.indices),
                                 time.perf_counter() - t1)
        return captured

    def _fallback(self, job: _Job, results: list) -> None:
        """Serve one job in the parent as a recovery.

        The degradation path when the shared executor can no longer run
        the job (a worker died, timed out, or the whole pool broke), so
        the sweep completes instead of failing.  Counted in
        ``FaultLog.fallbacks`` — every call site is a recovery, never a
        scheduling choice.
        """
        self.fault_log.fallbacks += 1
        self._serve_in_parent(job, results)

    def _adaptive_chunks(self, n_configs: int, on_disk: bool,
                         queue_depth: int) -> int:
        """Chunk count for one warm point's submission.

        Adapts to the live queue instead of splitting every submission
        ``workers`` ways: payload-free (shared-disk) submissions split
        across the pool's currently *idle* slots — a busy pool gets one
        job (extra chunks would only queue), a drained pool gets enough
        chunks to refill.  Payload-shipping submissions never split:
        each chunk would re-pipe the pruned trace pickle.
        """
        if not on_disk or n_configs <= 1:
            return 1
        idle = self.workers - queue_depth
        return max(1, min(n_configs, idle))

    def _submit_point(self, pending: dict, job: _Job, results: list,
                      split: bool = False) -> None:
        """Queue one point job, in chunks of its configs when ``split``
        (see :meth:`_adaptive_chunks`); a chunk the pool cannot take is
        served in the parent.  Only the first chunk claims the job's
        capture point."""
        n = len(job.configs)
        size = -(-n // self._adaptive_chunks(n, split, len(pending))) or 1
        for start in range(0, max(n, 1), size):
            chunk = dataclasses.replace(
                job, configs=job.configs[start:start + size],
                indices=job.indices[start:start + size],
                points=job.points if start == 0 else 0)
            if not self._submit_job(pending, chunk):
                self._fallback(chunk, results)

    def _failed(self, pending: dict, job: _Job, results: list) -> None:
        """Retry a failed job once; else quarantine it and serve it in
        the parent."""
        if job.attempts < 1:
            job.attempts += 1
            if self._submit_job(pending, job):
                self.fault_log.retries += 1
                return
        else:
            self.fault_log.quarantined += 1
            self.fault_log.quarantined_keys.append(repr(job.key))
        self._fallback(job, results)

    def _collect(self, fut, job: _Job, expired: set):
        """One finished or expired job's outcome, or :data:`_FAILED`.

        The single failure step of :meth:`run`'s wait loop: an expired
        job is abandoned (its worker may be hung — the process is
        terminated at shutdown); a raised exception (a dead worker, or
        a broken pool taking every sibling future with it) is
        classified into the fault log.  ``KeyboardInterrupt`` /
        ``SystemExit`` re-raise.
        """
        if fut in expired:
            self._abandon(fut, job)
            return _FAILED
        try:
            return fut.result()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._note_failure(exc)
            return _FAILED

    # ------------------------------------------------------------------
    # The pool's one scheduling loop.
    # ------------------------------------------------------------------
    def run(self, captures: Sequence[CaptureTask],
            replays: Sequence[PipelineReplay]) -> list[TimingReport]:
        """Serve every capture task's point: its trace, then its replays.

        ``captures[i]`` names one operating point; ``replays[j] =
        (config, i)`` times capture ``i`` on ``config``.  Returns one
        report per replay entry **in replay order** — byte-identical
        for any ``workers`` / ``capture_workers`` combination (both
        phases are deterministic; only scheduling changes).

        Tasks sharing a trace key collapse into one capture.  Replay
        entries naming one capture on configs with equal
        :func:`~repro.machine.registry.machine_fingerprint` values (e.g.
        a builtin config and a YAML spec differing only in display
        name) replay once and share the report object.  Capture keys
        never involve the fingerprint — traces stay machine-independent.
        """
        from ..machine.registry import machine_fingerprint

        captures = list(captures)
        # One result slot per distinct (capture, machine spec).
        configs: list[SystemConfig] = []
        plans: list[list[int]] = [[] for _ in captures]
        slots: dict = {}
        expand: list[int] = []
        for config, cidx in replays:
            ident = (cidx, machine_fingerprint(config))
            if ident not in slots:
                slots[ident] = len(configs)
                plans[cidx].append(len(configs))
                configs.append(config)
            expand.append(slots[ident])
        results: list[Optional[TimingReport]] = [None] * len(configs)

        jobs: dict[TraceKey, _Job] = {}
        for cidx, task in enumerate(captures):
            key = task.key()
            job = jobs.setdefault(key, _Job(key, task, [], []))
            job.indices += plans[cidx]
        for job in jobs.values():
            job.configs = [configs[slot] for slot in job.indices]
        pooled = self.workers > 1
        pooled_captures = self.capture_workers > 1 and len(captures) > 1
        # A pooled sweep sorts its keys with a tag-and-CRC probe (no
        # payload deserialization, no lookup counter; a checksum-failed
        # entry is purged and counted as get() would).  A serial one
        # serves each key by capture(), whose own cache lookup counts
        # the hit or recaptures — one store read per key.
        parent: list[_Job] = []
        warm: list[_Job] = []
        cold: "deque[_Job]" = deque()
        for job in jobs.values():
            if not pooled:
                parent.append(job)
            elif not job.task.verify and self.cache.probe(job.key):
                warm.append(job)
            elif pooled_captures:
                job.cold = True
                cold.append(job)
            else:
                parent.append(job)
        shared = self.cache.disk_dir is not None and not self.cache.memory_only
        # Keys whose capture this run has recorded: a worker recapture
        # of one (say, by two chunks of a vanished entry) adds nothing.
        paid = {job.key for job in parent}
        pending: dict = {}

        def top_up_cold() -> None:
            # The soft split: full budget while no warm job competes.
            while cold:
                in_flight = [job.cold for job in pending.values()]
                allowance = self.capture_workers \
                    if len(in_flight) > sum(in_flight) else self.workers
                if sum(in_flight) >= allowance:
                    return
                job = cold.popleft()
                if not self._submit_job(pending, job):
                    self._fallback(job, results)

        def landed(job: _Job, outcome) -> None:
            pid, fresh, entry, reports, stats, capture_s, replay_s = outcome
            _merge_snapshot(self._worker_stats, pid, stats)
            if fresh and job.key not in paid:
                paid.add(job.key)
                self.cache.ingest_remote(job.key, entry)
            self.pipeline_stats.note(job.points, capture_s,
                                     len(job.indices), replay_s)
            for idx, report in zip(job.indices, reports):
                results[idx] = report

        try:
            # Cold keys enter the pool first and warm ones queue behind
            # them, so the parent's own captures below overlap both.
            top_up_cold()
            for job in warm:
                if not shared:
                    job.payload = self.cache.get(job.key)
                self._submit_point(pending, job, results,
                                   split=job.payload is None)
            for job in parent:
                if not pooled or not job.configs:
                    self._serve_in_parent(job, results)
                    continue
                # The parent captured (and verified) the point; its
                # replays go to the pool with the trace or the store.
                captured = self._serve_in_parent(
                    dataclasses.replace(job, configs=[], indices=[]),
                    results)
                on_disk = _in_store(self.cache, job.key)
                self._submit_point(pending, dataclasses.replace(
                    job, task=dataclasses.replace(job.task, verify=False),
                    points=0, payload=None if on_disk else captured),
                    results, split=on_disk)
            while pending:
                done, expired = self._wait_done(pending)
                for fut in (done or expired):
                    job = pending.pop(fut)
                    outcome = self._collect(fut, job, expired)
                    if outcome is _FAILED:
                        self._failed(pending, job, results)
                    else:
                        landed(job, outcome)
                    top_up_cold()
        finally:
            self.shutdown()
        return [results[slot] for slot in expand]

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Cache counters aggregated over every worker this pool used."""
        agg = {"hits": 0, "disk_hits": 0, "misses": 0,
               "workers": len(self._worker_stats),
               "faults": self.fault_log.as_dict(),
               "per_worker": dict(self._worker_stats)}
        for stats in self._worker_stats.values():
            for counter in ("hits", "disk_hits", "misses"):
                agg[counter] += stats.get(counter, 0)
        return agg


def run_pipeline(captures: Sequence[CaptureTask],
                 replays: Sequence[PipelineReplay],
                 pool: SimPool | None = None) -> list[TimingReport]:
    """Run one sweep's captures and replays through :meth:`SimPool.run`.

    ``captures[i]`` names one operating point; ``replays[j] = (config,
    i)`` times capture ``i`` on ``config``.  Returns one report per
    replay entry **in replay order**, byte-identical for any pool
    sizing; per-phase wall-clock lands in ``pool.pipeline_stats``.
    Without a ``pool`` the sweep runs in-process on a private
    :class:`SimPool` with its own in-memory cache.
    """
    return (pool if pool is not None else SimPool()).run(captures, replays)
