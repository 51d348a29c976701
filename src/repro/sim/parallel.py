"""Parallel capture and replay: one shared pool, tagged jobs, two phases.

:meth:`~repro.sim.simulator.Simulator.capture` and
:class:`~repro.timing.engine.TimingEngine` replay are independent: one
captured :class:`~repro.functional.executor.ExecResult` replays against
any number of machine models, each replay bit-identical to a fresh
end-to-end run.  The paper's evaluation sweeps (Fig 6/7, Table I/III,
the ablations) are therefore embarrassingly parallel in *both* phases:
replays of one capture are independent of each other, and captures of
distinct ``(program fingerprint, vlen_bits, setup)`` keys are
independent of everything.

:class:`SimPool` owns a single
:class:`~concurrent.futures.ProcessPoolExecutor` sized by one
``workers=`` budget and executes *tagged* jobs on it:

* ``capture`` jobs run one functional capture per distinct trace key
  (workers rebuild the kernel from its picklable :class:`CaptureTask`
  spec and write the captured trace into the shared disk store through
  the normal atomic-envelope
  :meth:`~repro.sim.trace_cache.TraceCache.put` path);
* ``replay`` jobs time a captured trace on one or more machine configs.

``capture_workers=`` is a **soft priority split**: while replay jobs
are in flight, at most ``min(capture_workers, workers)`` capture jobs
are submitted concurrently, leaving the remaining slots to drain
replays; when no replays are pending, captures may fill the whole
budget.  ``capture_workers=1`` (the default) keeps the capture phase
in-process, and ``workers=1`` keeps *everything* in-process with no
executor at all.  Whatever the knobs, the total number of live worker
processes never exceeds the ``workers=`` budget, and rendered sweep
output is byte-identical: only scheduling changes, never results.

Every sweep goes through :meth:`SimPool.run` (:func:`run_pipeline` only
supplies a default pool), one scheduling pass for every pool size.  It
groups the capture tasks by trace key, so tasks sharing a key run one
capture, and the replay entries by ``(capture, machine fingerprint)``,
so two machine definitions with one timing identity replay once.  Keys
whose captures stay in the parent are served there in one loop; each
point's replay jobs enter the pool *as soon as* its trace lands, so
capture and replay overlap instead of running as strict serial phases
(with ``workers=1`` the replays run in the parent right away).  Replay
submissions are **chunked adaptively**: a capture whose key sits in the
shared disk store ships no payload, so its replays can split across
however many pool slots are currently idle — a busy pool gets one job
(queueing more buys nothing), a draining pool gets enough chunks to
refill.  Payload-shipping submissions (no shared disk) stay whole,
since every extra chunk would re-pipe the pruned trace pickle.

Both phases are instrumented: every job (pooled or in-process) reports
its wall-clock, summed per phase in :class:`PipelineStats`
(:attr:`SimPool.pipeline_stats`), so benchmark tables can report
capture/replay work seconds — pipeline *efficiency*, not just cache hit
counts.

Worker-side details shared by both job kinds:

* **One process-local cache per worker** — with a ``disk_dir`` it
  rehydrates payload-free replay jobs and write-throughs captures;
  either way its memory layer lets keys repeated across jobs skip
  re-shipping, and a worker that captured a trace serves its own replay
  jobs from memory.
* **One payload per trace key** — every capture the pool holds came
  through a :class:`~repro.sim.trace_cache.TraceCache`, so it already
  is the replay-only entry both cache tiers store (no memory image).
  Replay jobs ship that entry only when the key is not already in the
  shared store; stale or vanished store entries trigger an explicit
  payload resend (the job answers with ``reports`` of None).
* **Failure degradation** — a dead worker, or a store GC that evicts a
  fresh entry before the parent adopts it, degrades to in-process work
  (counted in ``FaultLog.fallbacks``) rather than failing the sweep.
* **Per-worker statistics** — each job, including one answered with a
  payload request, reports its worker's cache counters;
  :attr:`SimPool.stats` aggregates them across the pool, so every
  worker lookup is counted once whatever the schedule.

Fault tolerance (the full ladder lives in ``docs/robustness.md``):

* **Classification, never silence** — every pooled-job exception is
  classified (``BrokenProcessPool`` family vs anything else) and
  counted by type in the pool's :class:`~repro.sim.faults.FaultLog`
  (``pool.pipeline_stats.faults``); ``KeyboardInterrupt`` /
  ``SystemExit`` re-raise cleanly out of the pipeline loop.
* **Bounded retry** — a failed pipeline job is resubmitted to the pool
  exactly once (a fresh attempt number, so a seeded
  :class:`~repro.sim.faults.FaultPlan` can let the retry succeed)
  before degrading in-process.
* **Executor rebuild** — a broken executor is retired (not reused: a
  ``BrokenProcessPool`` poisons every later submission) and the next
  submission builds a fresh one, up to :data:`MAX_REBUILDS` times; beyond
  that the whole sweep degrades to serial in-process execution and
  still completes byte-identically.
* **Poison-job quarantine** — a job that takes workers down twice runs
  in-process and its key is flagged in ``FaultLog.quarantined_keys``.
* **Deadlines** — ``job_timeout=`` (default off) bounds each pooled
  job's wall-clock; an expired job is abandoned (its worker may be
  hung — the process is terminated at shutdown) and handled like any
  other failure: retried once, then served in-process.
"""

from __future__ import annotations

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


# ----------------------------------------------------------------------
# Pipeline statistics: per-phase wall-clock.
# ----------------------------------------------------------------------
@dataclass
class PipelineStats:
    """Wall-clock instrumentation of one pool's capture/replay phases.

    ``*_points`` counts operating points served per phase (a replay job
    covering three configs contributes three points; tasks sharing a
    trace key are one capture point), and ``*_seconds`` sums the jobs'
    measured wall-clock.  Seconds are *work* seconds summed across
    workers — with N workers busy they accrue up to N times faster than
    the pipeline's elapsed time, which makes ``capture_seconds /
    capture_points`` a scheduling-independent per-point cost.
    """

    capture_points: int = 0
    capture_seconds: float = 0.0
    replay_points: int = 0
    replay_seconds: float = 0.0
    #: Structured fault/recovery counters (see FaultLog).
    faults: FaultLog = field(default_factory=FaultLog)

    def note(self, tag: str, points: int, seconds: float) -> None:
        """Record one finished job of ``tag`` ('capture' | 'replay')."""
        if tag == "capture":
            self.capture_points += points
            self.capture_seconds += seconds
        else:
            self.replay_points += points
            self.replay_seconds += seconds


@dataclass
class _Job:
    """Parent-side bookkeeping for one tagged submission.

    ``indices`` are capture-task indices for a capture job and result
    indices for a replay job; ``captured`` is kept on replay jobs so a
    stale-entry resend or an in-process degradation never needs the
    worker's copy.  ``attempts`` numbers the submissions of this job
    (feeding the fault plan's deterministic per-attempt rolls) and
    ``deadline`` is the monotonic instant after which the job is
    abandoned (None = no ``job_timeout``).
    """

    tag: str                                   # "capture" | "replay"
    key: Optional[TraceKey] = None
    captured: Optional[ExecResult] = None
    configs: list = field(default_factory=list)
    indices: list = field(default_factory=list)
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
# Worker side.  One process-local TraceCache per worker serves BOTH job
# kinds: with a disk_dir it rehydrates payload-free replay jobs and
# write-throughs captures; either way its memory layer lets a worker
# that captured a trace replay it without ever touching disk.
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


def _capture_job(task: "CaptureTask"):
    """Capture one task in a worker; returns (pid, key, payload, stats, s).

    With a disk-backed worker cache the capture lands in the shared
    store through the normal atomic-envelope ``put`` and ``payload`` is
    None — the parent (and any concurrent replay worker) rehydrates it
    as a disk hit.  Without shared disk the cache's replay-only entry
    ships back over the pipe instead.
    """
    t0 = time.perf_counter()
    cache = _WORKER_CACHE  # set by _init_worker in every pool worker
    run = task.build()
    captured = run.capture(task.config, cache=cache, verify=task.verify)
    # A cache ENOSPC-demoted to memory-only never landed the entry on
    # disk — ship the payload over the pipe instead of pointing the
    # parent at a file that does not exist.
    on_disk = cache.disk_dir is not None and not cache.memory_only
    payload = None if on_disk else captured
    return (os.getpid(), run.trace_key(task.config), payload,
            dict(cache.stats), time.perf_counter() - t0)


def _replay_job(key: Optional[TraceKey], payload: Optional[ExecResult],
                configs: list[SystemConfig]):
    """Replay one trace's configs in a worker; (pid, reports, stats, s).

    ``reports`` is None when the job carries no payload and the worker's
    cache cannot serve the key: the parent must resend it with an
    explicit payload.  The stats snapshot travels either way, so the
    miss that lookup counted is reported like any other.
    """
    t0 = time.perf_counter()
    cache = _WORKER_CACHE
    captured = None
    if cache is not None and key is not None:
        captured = cache.get(key)
    reports = None
    if captured is None and payload is not None:
        captured = payload
        if cache is not None and key is not None:
            cache._remember(key, captured)  # memory layer only: the
            # parent (or another worker) already owns the disk write.
    if captured is not None:
        reports = [replay_trace(config, captured).timing
                   for config in configs]
    stats = dict(cache.stats) if cache is not None else {}
    return os.getpid(), reports, stats, time.perf_counter() - t0


def _run_job(tag: str, token: str, attempt: int, *args):
    """The pool's single entry point: dispatch one tagged job.

    Every submission to a :class:`SimPool` executor goes through here,
    so one worker pool — and one process-local cache — serves both
    phases.  ``tag`` is ``"capture"`` or ``"replay"``; ``token`` and
    ``attempt`` identify this (job, submission) pair for the fault
    plan's deterministic injection rolls — a retried job carries a
    fresh attempt number, so a plan can crash the first attempt and
    let the retry through.
    """
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.inject_job_faults(f"{tag}:{token}", attempt)
    if tag == "capture":
        return _capture_job(*args)
    return _replay_job(*args)


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
    """One process pool executing tagged capture/replay jobs.

    * ``workers=`` is the **total** process budget — the executor is
      sized by it, so capture and replay fan-out together can never
      hold more than ``workers`` live processes.  ``None`` autodetects
      the host's schedulable CPUs; ``1`` runs everything in-process
      with no executor, byte-identical to any pooled schedule.
    * ``capture_workers=`` is a **soft priority split**: while replay
      jobs are pending, at most ``min(capture_workers, workers)``
      capture jobs are in flight, keeping slots free to drain replays;
      with no replays pending, captures may fill the whole budget.
      ``1`` (the default) captures in the parent process.  ``None``
      autodetects (and is then clamped to the budget).
    * ``cache`` is the trace cache/store both phases go through; its
      ``disk_dir`` (if any) is what lets workers exchange traces as
      disk envelopes instead of pipe payloads.

    The pool is lazy: the executor spawns on first pooled submission
    and is torn down at the end of each :meth:`run` (or explicitly via
    :meth:`shutdown` / ``with pool:``).
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
        #: capture jobs while replay jobs are pending.
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
        # per-key failure strikes, and the serial-degradation latch.
        self._zombies: list = []
        self._abandoned: list = []
        self._breaks = 0
        self._strikes: dict = {}
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

    def _job_token(self, job: _Job) -> str:
        """Stable per-job identity for the fault plan's rolls."""
        if job.tag == "capture":
            return repr(job.key)
        return f"{job.key!r}|{job.indices[0] if job.indices else -1}" \
               f"x{len(job.indices)}"

    def _submit_job(self, pending: dict, job: _Job, args: tuple) -> bool:
        """Submit one tagged job to the (possibly rebuilt) executor.

        Returns False — without raising — when the pool cannot take the
        job (serial-only latch, or the submission itself failed); the
        caller then serves the job in-process.  On success the job
        lands in ``pending`` with its deadline armed.
        """
        if self._serial_only:
            return False
        try:
            executor = self._ensure_executor()
            fut = executor.submit(_run_job, job.tag, self._job_token(job),
                                  job.attempts, *args)
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
            f"{job.tag} job exceeded job_timeout={self.job_timeout}s")
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

    # -- shared helpers ------------------------------------------------
    def _on_disk(self, key: Optional[TraceKey]) -> bool:
        if self.cache.disk_dir is None or key is None:
            return False
        return disk_path(self.cache.disk_dir, key).exists()

    def _capture_local(self, task: CaptureTask,
                       points: int = 1) -> ExecResult:
        """Capture (or cache-serve) one task in the parent, timed.

        ``points=0`` records the wall-clock without claiming another
        operating point — used when the point was already counted (a
        worker captured it but the entry was lost before adoption), so
        ``capture_points`` stays "points served", never "captures run".
        """
        t0 = time.perf_counter()
        run = task.build()
        captured = run.capture(task.config, cache=self.cache,
                               verify=task.verify)
        self.pipeline_stats.note("capture", points,
                                 time.perf_counter() - t0)
        return captured

    def _fallback(self, task: CaptureTask, points: int = 1) -> ExecResult:
        self.fault_log.fallbacks += 1
        return self._capture_local(task, points=points)

    def _replay_in_parent(self, job: _Job, results: list) -> None:
        """Replay one job's configs in the parent, timed."""
        t0 = time.perf_counter()
        for idx, config in zip(job.indices, job.configs):
            results[idx] = replay_trace(config, job.captured).timing
        self.pipeline_stats.note("replay", len(job.indices),
                                 time.perf_counter() - t0)

    def _replay_local(self, job: _Job, results: list) -> None:
        """Replay one job in the parent as a recovery.

        The degradation path when the shared executor can no longer run
        the job (a worker died, timed out, or the whole pool broke):
        the parent holds ``job.captured``, so the sweep completes
        instead of failing.  Counted in ``FaultLog.fallbacks`` — every
        call site is a recovery, never a scheduling choice.
        """
        self.fault_log.fallbacks += 1
        self._replay_in_parent(job, results)

    def _adaptive_chunks(self, n_configs: int, on_disk: bool,
                         queue_depth: int) -> int:
        """Chunk count for one capture's replay submission.

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

    def _submit_replays(self, pending: dict, captured: ExecResult,
                        key: Optional[TraceKey],
                        configs: Sequence[SystemConfig],
                        indices: Sequence[int],
                        results: list) -> None:
        """Queue one captured trace's replays onto the shared executor.

        With ``workers=1`` the replays run in the parent right away: the
        serial schedule, not a recovery.  A pool that can no longer
        accept work (broken by an earlier worker death) degrades each
        chunk to an in-process replay instead of failing the sweep.
        """
        if not configs:
            return
        on_disk = self._on_disk(key)
        payload = None if on_disk else captured
        chunks = self._adaptive_chunks(len(configs), on_disk, len(pending))
        size = -(-len(configs) // chunks)  # ceil division
        for start in range(0, len(configs), size):
            job = _Job(tag="replay", key=key, captured=captured,
                       configs=list(configs[start:start + size]),
                       indices=list(indices[start:start + size]))
            if self.workers == 1:
                self._replay_in_parent(job, results)
            elif not self._submit_job(pending, job,
                                      (key, payload, job.configs)):
                self._replay_local(job, results)

    def _resubmit_replay(self, pending: dict, job: _Job,
                         resend: bool = False) -> bool:
        """Re-enter one replay job as a fresh pool attempt.

        ``resend`` forces an explicit payload (the worker found the
        store entry stale or missing); otherwise the payload ships only
        when the key is not in the shared disk store.
        """
        job.attempts += 1
        payload = job.captured \
            if resend or not self._on_disk(job.key) else None
        return self._submit_job(pending, job,
                                (job.key, payload, job.configs))

    def _collect(self, fut, job: _Job, expired: set):
        """One finished or expired job's outcome, or :data:`_FAILED`.

        The single failure step of :meth:`run`'s wait loop, for both
        job kinds: an expired job is abandoned (its worker may be hung —
        the process is terminated at shutdown); a raised exception (a
        dead worker, or a broken pool taking every sibling future with
        it) is classified into the fault log.  Either way the caller
        retries once, then serves the job in the parent.
        ``KeyboardInterrupt`` / ``SystemExit`` re-raise.
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

    def _replay_failed(self, pending: dict, job: _Job,
                       results: list) -> None:
        """Retry a failed replay job once; else finish it in-process."""
        if job.attempts < 1 and self._resubmit_replay(pending, job):
            self.fault_log.retries += 1
        else:
            self._replay_local(job, results)

    def _replay_landed(self, pending: dict, job: _Job, outcome,
                       results: list) -> None:
        """Record one replay job's reports (or resend it a payload)."""
        pid, reports, stats, seconds = outcome
        _merge_snapshot(self._worker_stats, pid, stats)
        if reports is None:
            # Stale/missing disk entry: resend with an explicit payload
            # (in-process if the pool can no longer take the job).
            if not self._resubmit_replay(pending, job, resend=True):
                self._replay_local(job, results)
            return
        self.pipeline_stats.note("replay", len(job.indices), seconds)
        for idx, report in zip(job.indices, reports):
            results[idx] = report

    # ------------------------------------------------------------------
    # The two-phase pipeline: the pool's one scheduling loop.
    # ------------------------------------------------------------------
    def run(self, captures: Sequence[CaptureTask],
            replays: Sequence[PipelineReplay]) -> list[TimingReport]:
        """Capture every task, replaying each point as its trace lands.

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

        by_key: dict[TraceKey, list[int]] = {}
        for cidx, task in enumerate(captures):
            by_key.setdefault(task.key(), []).append(cidx)
        pooled_captures = self.capture_workers > 1 and len(captures) > 1
        # Keys are classified only when captures go to the pool: a
        # tag-and-CRC probe (no payload deserialization, no lookup
        # counter; a checksum-failed entry is purged and counted as
        # get() would) keeps warm keys in the parent.  Every parent-side
        # key is served by capture(), whose cache lookup counts the hit
        # or recaptures — one store read per key, as a serial sweep does.
        parent: list[tuple[TraceKey, list[int]]] = []
        cold: "deque[tuple[TraceKey, list[int]]]" = deque()
        for key, cidxs in by_key.items():
            if pooled_captures and not self.cache.probe(key):
                cold.append((key, cidxs))
            else:
                parent.append((key, cidxs))
        pending: dict = {}

        def in_flight(tag: str) -> int:
            return sum(job.tag == tag for job in pending.values())

        def capture_allowance() -> int:
            # The soft split: full budget while no replays compete.
            return self.capture_workers if in_flight("replay") \
                else self.workers

        def top_up_captures() -> None:
            while cold and in_flight("capture") < capture_allowance():
                key, cidxs = cold.popleft()
                job = _Job(tag="capture", key=key, indices=list(cidxs))
                if not self._submit_job(pending, job, (captures[cidxs[0]],)):
                    # Unusable pool: capture (and replay) in the parent.
                    submit_point(cidxs, key,
                                 self._fallback(captures[cidxs[0]]))

        def capture_failed(job: _Job) -> None:
            """Retry a failed capture once; else quarantine + fallback.

            The second failure for one key marks it a poison job: it
            runs in the parent (like any fallback) and the key is
            flagged in ``FaultLog.quarantined_keys``.
            """
            task = captures[job.indices[0]]
            strikes = self._strikes.get(job.key, 0) + 1
            self._strikes[job.key] = strikes
            if strikes < 2:
                job.attempts += 1
                if self._submit_job(pending, job, (task,)):
                    self.fault_log.retries += 1
                    return
            else:
                self.fault_log.quarantined += 1
                self.fault_log.quarantined_keys.append(repr(job.key))
            submit_point(job.indices, job.key, self._fallback(task))

        def capture_landed(job: _Job, outcome) -> None:
            pid, _wkey, payload, stats, seconds = outcome
            _merge_snapshot(self._worker_stats, pid, stats)
            self.pipeline_stats.note("capture", 1, seconds)
            captured = self.cache.ingest_remote(job.key, payload)
            if captured is None:
                # The store's GC evicted the entry (or a corrupt write
                # failed its checksum) between the worker's put and
                # adoption; the point is already counted, so the
                # re-capture adds seconds, not points.
                captured = self._fallback(captures[job.indices[0]],
                                          points=0)
            submit_point(job.indices, job.key, captured)

        def submit_point(cidxs: list[int], key: TraceKey,
                         captured: ExecResult) -> None:
            indices = [slot for cidx in cidxs for slot in plans[cidx]]
            self._submit_replays(pending, captured,
                                 key, [configs[i] for i in indices],
                                 indices, results)

        try:
            # Cold keys enter the pool first, so serving the parent's
            # keys below overlaps with captures already in flight, and
            # submitted replays drain in the pool behind it.
            top_up_captures()
            for key, cidxs in parent:
                submit_point(cidxs, key,
                             self._capture_local(captures[cidxs[0]]))
            while pending:
                done, expired = self._wait_done(pending)
                for fut in (done or expired):
                    job = pending.pop(fut)
                    outcome = self._collect(fut, job, expired)
                    if job.tag == "capture":
                        if outcome is _FAILED:
                            capture_failed(job)
                        else:
                            capture_landed(job, outcome)
                    elif outcome is _FAILED:
                        self._replay_failed(pending, job, results)
                    else:
                        self._replay_landed(pending, job, outcome, results)
                    top_up_captures()
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
