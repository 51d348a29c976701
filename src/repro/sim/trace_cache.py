"""Trace cache: capture a functional execution once, replay it everywhere.

The dynamic trace of a program depends only on (a) the program itself,
(b) the initial architectural/memory state its setup placed, and (c) the
machine's VLEN — never on the timing model.  The paper's evaluation is a
large cross-product of kernels x problem sizes x machine/timing configs,
so re-running the functional interpreter per timing point wastes almost
all of its work.  :class:`TraceCache` keys captured
:class:`~repro.functional.executor.ExecResult` objects by

    (program fingerprint, vlen_bits, setup identity)

where the *program fingerprint* is the content hash from
:attr:`repro.isa.program.Program.fingerprint` and the *setup identity*
names the initial data (for kernels: the kernel name plus its problem
dictionary, which seeds the deterministic input RNG).  Two operating
points with equal keys are guaranteed to produce identical traces, so a
replay against any machine model yields a bit-identical
:class:`~repro.timing.report.TimingReport` to a fresh end-to-end run.

The cache is an in-memory LRU with an optional on-disk pickle layer for
cross-process reuse (e.g. ``benchmarks/out/trace_cache``, or the worker
caches of :class:`~repro.sim.parallel.SimPool`).

Disk format
-----------
Disk entries are written for *concurrent* readers and writers sharing one
``disk_dir``:

* **Payload pruning** — both tiers hold one entry form: ``put`` drops
  the functional memory image (large, only needed by golden checks,
  which run at capture time) before the entry enters the memory LRU or
  the disk, and pickling drops decoded plan caches (which hold
  lambdas).  Every entry, fresh or disk-rehydrated, is replay-only and
  safe to ship across process boundaries.
* **Sectioned payload (v8)** — an entry is four zlib-compressed
  sections: ``payload``, a dict of the other ``ExecResult`` fields
  (the final state, register file included); ``scalar`` and
  ``vector``, the packed struct-of-arrays blob (:func:`repro
  .functional.trace_pack.pack_trace`) cut at its first vector column
  (:func:`~repro.functional.trace_pack.split_blob`: concatenated, they
  are the blob byte for byte); and ``plan``, the trace's compiled
  :class:`~repro.timing.replay_plan.ReplayPlan` (:meth:`~repro.timing
  .replay_plan.ReplayPlan.section`) behind the 32-byte
  :func:`~repro.timing.replay_plan.compiler_digest` of the compiler
  that wrote it, or empty for a plan below
  :data:`PLAN_SECTION_MIN_ROWS` rows.  The plan section carries the
  compiled code of the plan's superblock bodies (:func:`repro.timing
  .superblock.code`), so a body is compiled once per store and loaded
  per process.  A read decompresses the
  payload, the scalar section and the plan, nothing else: the trace is
  a lazy :class:`~repro.functional.trace_pack.PackedTrace` whose vector
  section stays compressed until something reads its vector columns,
  events or blob, and a stored plan is loaded, never compiled
  (``plan_loads``); its first replay loads each body's function from
  the stored code unless this process already has it (``code_loads``).
  The digest covers the interpreter's bytecode magic number, so a
  section another CPython wrote is stale like one another compiler
  wrote, and its code never runs.  A plan whose digest is not this
  process's compiler's is *stale*: the read still serves the trace, compiles its
  plan afresh from the inflated columns (``plan_stale``) — not a miss,
  not corruption — and rewrites the entry with the new plan section
  through the atomic write path, so a compiler change costs one compile
  per entry, not one per read.  A trace with an empty plan section
  compiles on first replay.  :meth:`put` compiles the plan when the trace
  has none and leaves it on the trace, so the replay that follows a
  put compiles nothing.
* **Atomic writes** — each entry is pickled to a ``tempfile`` inside
  ``disk_dir`` and moved into place with :func:`os.replace`, so a
  concurrent reader sees either the old complete file or the new
  complete file, never an interleaved or truncated one, and a crashed
  writer leaves at worst an orphaned ``*.tmp``.
* **Versioned envelope** — the pickle is a dict
  ``{"format": DISK_FORMAT_VERSION, "schema": <ExecResult field names>,
  "crc32": <checksum of every section>, "payload": ..., "scalar": ...,
  "vector": ..., "plan": ...}``.  Keys beyond these are
  ignored, so entries an older revision wrote with a ``hits_served``
  field still serve.  A stale file from an older code revision (wrong
  version, drifted ``ExecResult`` fields, or a pre-envelope bare
  pickle) is treated as a plain miss — the caller recaptures and the
  subsequent :meth:`TraceCache.put` overwrites the stale file in
  place.  Nesting the sections as bytes lets envelope *validation*
  (:meth:`TraceCache.probe`, the store GC's stale purge) check the tags
  without deserializing — or decompressing — the trace itself.
* **Payload checksum** — ``crc32`` covers the compressed bytes of all
  four sections, in order, and is verified on every disk read and
  :meth:`TraceCache.probe`.  A mismatch or a missing checksum means the
  bytes on disk are not what the writer produced (bit rot, a partial
  foreign write, injected corruption); the entry is unlinked and
  counted in ``corrupt_purged`` rather than left to shadow the budget,
  and the caller sees a plain miss.
* **Write-failure degradation** — a ``put`` whose disk write raises
  ``ENOSPC`` flips the cache to memory-only (one-shot
  ``RuntimeWarning``; later puts skip the disk layer entirely); any
  other transient ``OSError`` is retried once (``io_retries``) and
  then abandoned for that entry (``put_errors``) — the in-memory layer
  still holds it, so correctness never depends on the disk write
  landing.
* **Recency stamp** — every disk serve freshens the entry's ``mtime``
  (one :func:`os.utime` by the cache's clock, writing no bytes), so the
  store GC's eviction order is an LRU over *use* — including serves by
  a transient pool worker's cache.
* **Compressed payload** — the nested payload bytes are
  zlib-compressed (v4).  Trace pickles are dominated by repetitive
  event records, so compression cuts entries by roughly an order of
  magnitude, which multiplies how many operating points fit in the
  shared store's GC budget and shrinks what capture/replay workers
  write.  An uncompressed v3 file reads as a plain miss via the format
  tag, never as a decode error.

Statistics distinguish the layers: ``hits`` counts in-memory LRU hits
only, ``disk_hits`` counts rehydrations from disk, and ``hit_rate`` is
the true in-memory rate ``hits / (hits + disk_hits + misses)``.  Each
:meth:`TraceCache.get` counts exactly one of the three.
``remote_puts`` counts entries adopted via :meth:`TraceCache
.ingest_remote` — captures paid by a worker process of a
:class:`~repro.sim.parallel.SimPool` rather than by this process —
so warm disk hits served by an *earlier* run stay distinguishable from
captures this very sweep fanned out.  Of the disk reads (both kinds),
``plan_loads`` counts those that took their replay plan from the plan
section and ``plan_stale`` those whose section another compiler wrote;
``code_loads`` counts the superblock bodies the replays of those loaded
plans took from the section's code instead of compiling them.

Shared store layout and lifecycle
---------------------------------
``disk_dir`` is flat: one ``trace_<sha256(key)[:32]>.pkl`` per entry
(see :func:`disk_path`) plus transient ``<name>.<random>.tmp`` files
while an atomic write is in flight.  The whole benchmark suite and
:func:`~repro.eval.runner.run_experiment` share one such directory via
:class:`~repro.sim.trace_store.TraceStore`, which adds the lifecycle a
long-lived store needs — a size-capped mtime-LRU GC, stale-envelope
purging, and crashed-writer ``*.tmp`` reaping — and resolves its
location and byte budget from, in priority order, an explicit path
(``pytest --trace-store`` / ``python -m repro.eval --trace-store``), the
``REPRO_TRACE_STORE`` / ``REPRO_TRACE_STORE_BYTES`` environment
variables, and the suite default ``benchmarks/out/trace_cache``.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import pickle
import tempfile
import time
import warnings
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional

from ..errors import TimingError
from ..functional.executor import ExecResult
from ..functional.trace_pack import split_blob, unpack_sections
from ..isa.program import Program
from ..timing import superblock
from ..timing.replay_plan import ReplayPlan, compiler_digest
from .faults import FaultPlan

TraceKey = tuple

#: Default number of captured traces kept in memory.  Sweeps revisit a
#: key only within one inner machine loop, so a modest window suffices.
DEFAULT_CAPACITY = 32

#: Version of the on-disk envelope.  Bump when the disk representation
#: itself changes shape; ``ExecResult`` field drift is caught separately
#: by the schema tag so unrelated refactors invalidate entries without a
#: manual bump.  v3: the payload is nested as pickled bytes so envelope
#: validation need not deserialize the trace.  v4: the payload bytes are
#: zlib-compressed (a v3 file fails the format check and reads as a
#: plain miss, never as a decompression error).  v5: trace event classes
#: (``MemAccess``, ``DynamicTrace``) grew ``__slots__``, changing their
#: pickled state shape — a v4 payload would fail mid-unpickle and be
#: miscounted as *corrupt*; the bump makes it a plain stale miss.  v6:
#: the payload is a field dict whose trace is a columnar
#: :func:`~repro.functional.trace_pack.pack_trace` blob instead of a
#: per-event object pickle; a v5 payload (a pickled ``ExecResult``)
#: would unwrap to the wrong shape, so the bump again makes it a plain
#: stale miss that the store GC purges.  v7: the blob's ``m_base``
#: column is unsigned and its header lost the per-event side map; a v6
#: blob would fail the layout check and be purged as *corrupt*, so the
#: bump makes it a stale miss instead.  v8: the payload splits into
#: four sections — the other fields, the blob's head and vector columns
#: as two zlib streams, and the compiled replay plan behind its
#: compiler digest — under one CRC over all of them; a v7 file has no
#: sections, so the bump makes it a stale miss that the GC purges.
DISK_FORMAT_VERSION = 8

#: zlib level for the payload bytes.  The default (6) already reaches
#: within a few percent of level 9 on trace pickles at a fraction of the
#: CPU; level 1 would halve the ratio for little time saved relative to
#: the pickling itself.
COMPRESS_LEVEL = 6


#: Envelope sections, in checksum order.
SECTIONS = ("payload", "scalar", "vector", "plan")

#: Plans below this many issue rows are not stored: they have no
#: superblocks and compile in about a millisecond, while their section
#: would add over a third to the entry's bytes.  The superblock
#: threshold is the same line between short traces and long ones.
PLAN_SECTION_MIN_ROWS = superblock.MIN_ROWS


def trace_key(program: Program, vlen_bits: int, setup_id: str) -> TraceKey:
    """Build the canonical cache key for one operating point."""
    return (program.fingerprint, int(vlen_bits), setup_id)


def disk_path(disk_dir: str | Path, key: TraceKey) -> Path:
    """On-disk location of one cache entry inside ``disk_dir``."""
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
    return Path(disk_dir) / f"trace_{digest}.pkl"


def _disk_payload(er: ExecResult) -> ExecResult:
    """Replay-only pruned capture: drop the functional memory image
    (large, and only needed by golden checks, which run at capture
    time).  This is the one entry form of both tiers: :meth:`TraceCache
    .put` keeps it in memory, so pool workers ship it over pipes as
    is, and the disk tier packs it further via :func:`_pack_sections`.
    Decoded plan caches (which hold lambdas) are excluded by
    ``Program`` / ``Instruction.__getstate__`` without touching the
    live objects."""
    return ExecResult(state=er.state, trace=er.trace, retired=er.retired,
                      program=er.program, halted=er.halted, extra={})


def _pack_sections(er: ExecResult) -> tuple:
    """The four envelope sections of a replay-only entry, in
    :data:`SECTIONS` order, each compressed (:func:`_plan_section`)."""
    trace = er.trace
    fields = {"state": er.state, "program": er.program,
              "retired": er.retired, "halted": er.halted}
    head, vector = split_blob(trace.blob)
    return (_compress(fields), zlib.compress(head, COMPRESS_LEVEL),
            zlib.compress(vector, COMPRESS_LEVEL), _plan_section(trace))


def _plan_section(trace) -> bytes:
    """The plan section of ``trace``: its replay plan (compiled now and
    left on the trace when it has none) behind the compiler digest, or
    empty for a trace the compiler rejects (its replay raises as it
    would have) and for a plan below :data:`PLAN_SECTION_MIN_ROWS`
    rows, which a read compiles afresh."""
    try:
        compiled = trace._plan
        if compiled is None:
            compiled = trace._plan = ReplayPlan.from_trace(trace)
    except TimingError:
        return b""
    if len(compiled.row_class) < PLAN_SECTION_MIN_ROWS:
        return b""
    return compiler_digest() + _compress(compiled.section())


def _compress(obj) -> bytes:
    return zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                         COMPRESS_LEVEL)


def _checksum(parts) -> int:
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


def _payload_schema() -> tuple:
    """Fingerprint of the ``ExecResult`` shape baked into disk entries."""
    return tuple(sorted(f.name for f in dataclasses.fields(ExecResult)))


def _validate_envelope(obj: object) -> bool:
    """Envelope tags are current.  Never deserializes the payload, so
    stale-entry scans (e.g. the trace store's GC) stay cheap."""
    return (isinstance(obj, dict)
            and obj.get("format") == DISK_FORMAT_VERSION
            and obj.get("schema") == _payload_schema()
            and all(isinstance(obj.get(name), bytes) for name in SECTIONS))


def _read_envelope(path: Path) -> object:
    """Unpickled contents of one disk entry, not yet validated.

    Raises ``OSError`` when the file cannot be read (e.g. evicted
    concurrently) and whatever the unpickler raises on corrupt bytes;
    each caller decides what either means.
    """
    with path.open("rb") as fh:
        return pickle.load(fh)


def _write_envelope(path: Path, envelope: dict,
                    clock: Optional[Callable[[], float]] = None) -> None:
    """Atomically (re)write one envelope dict at ``path``.

    The envelope is pickled to a private tempfile in the destination
    directory and renamed over ``path``; concurrent writers race only
    on the final :func:`os.replace`, which is atomic, so the file is
    always one writer's complete output.

    ``clock`` (when given) stamps the tempfile's mtime before the
    rename, so a store using an injected clock judges in-flight
    tempfile age with the *same* clock its GC reaps orphans by — the
    invariant that keeps a live writer's tempfile unreapable however
    slow the write is (see :meth:`~repro.sim.trace_store.TraceStore
    .gc`).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
        if clock is not None:
            stamp = clock()
            os.utime(tmp_name, (stamp, stamp))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _crc_ok(obj: dict) -> bool:
    """Section bytes match the envelope's checksum (absent = corrupt).

    Cheap relative to decompression — a CRC32 pass over compressed
    bytes — so reads and probes can verify integrity without paying
    for a decode attempt on garbage.
    """
    crc = obj.get("crc32")
    return crc is not None and crc == _checksum(obj[name]
                                                for name in SECTIONS)


def _unwrap_envelope(obj: dict, tally=None
                     ) -> Optional[tuple[ExecResult, bool]]:
    """``(entry, plan section stale)`` of a validated disk envelope, or
    None when it does not decode.

    Rehydrates the field dict into a replay-only ``ExecResult`` whose
    trace is a lazy :class:`~repro.functional.trace_pack.PackedTrace`
    over the scalar section, its vector section still compressed, and
    whose plan comes from a current plan section — no per-event objects
    and no vector column are built here.  The plan calls ``tally`` with
    the bodies its first replay loads from the section's code
    (:meth:`~repro.timing.replay_plan.ReplayPlan.from_section`).
    """
    try:
        payload = pickle.loads(zlib.decompress(obj["payload"]))
    # repro-lint: disable=RL201  unpickling corrupt bytes can raise any type
    except Exception:
        return None  # corrupt compressed bytes or inner pickle: a miss
    if not isinstance(payload, dict):
        return None  # foreign checksummed object: a miss
    try:
        trace = unpack_sections(zlib.decompress(obj["scalar"]),
                                obj["vector"], payload["program"])
        plan = obj["plan"]
        digest = compiler_digest()
        stale = bool(plan) and not plan.startswith(digest)
        if plan and not stale:
            trace._plan = ReplayPlan.from_section(
                pickle.loads(zlib.decompress(plan[len(digest):])), trace,
                tally)
        return ExecResult(state=payload["state"], trace=trace,
                          retired=payload["retired"],
                          program=payload["program"],
                          halted=payload["halted"], extra={}), stale
    # repro-lint: disable=RL201  a foreign checksummed dict can carry an
    # arbitrarily malformed blob; any parse failure is just a miss
    except Exception:
        return None


class TraceCache:
    """LRU cache of captured functional executions, keyed by
    ``(program fingerprint, vlen_bits, setup identity)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: str | Path | None = None,
                 fault_plan: Optional[FaultPlan] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if capacity < 1:
            raise ValueError("trace cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        #: Injectable time source; every age judgement (GC orphan
        #: reaping, manifest ages) and every tempfile or serve stamp
        #: uses this one clock so they can never disagree.  ``None`` =
        #: wall clock.
        self.clock = clock
        self._entries: OrderedDict[TraceKey, ExecResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.remote_puts = 0
        #: Entries whose payload failed its checksum and were unlinked.
        self.corrupt_purged = 0
        #: Disk writes retried once after a transient ``OSError``.
        self.io_retries = 0
        #: Disk writes abandoned after the retry also failed.
        self.put_errors = 0
        #: Set once ``ENOSPC`` demoted this cache to memory-only.
        self.memory_only = False
        #: Disk reads whose replay plan came from the plan section.
        self.plan_loads = 0
        #: Disk reads whose plan section another compiler wrote (the
        #: read compiles the plan and rewrites the section).
        self.plan_stale = 0
        #: Superblock bodies whose function a replay loaded from the
        #: code in a plan section this cache read, not compiled.
        self.code_loads = 0
        self._write_counts: dict[str, int] = {}  # fault-roll attempt nos

    def _now(self) -> float:
        """Current time per the injected clock (wall clock by default)."""
        # repro-lint: disable=RL101  injected-clock default: feeds only
        # mtime stamps, GC age judgements and manifest ages, never a
        # rendered table
        return time.time() if self.clock is None else self.clock()

    def _disk_path(self, key: TraceKey) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return disk_path(self.disk_dir, key)

    # ------------------------------------------------------------------
    def get(self, key: TraceKey) -> Optional[ExecResult]:
        """Captured execution for ``key``, or None.

        Counts exactly one memory hit, disk hit or miss.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._load_from_disk(key)
        if entry is None:
            self.misses += 1
            return None
        self._remember(key, entry)
        self.disk_hits += 1
        return entry

    def _load_from_disk(self, key: TraceKey) -> Optional[ExecResult]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            obj = _read_envelope(path)
        # repro-lint: disable=RL201  unpickling foreign files raises any type
        except Exception:
            return None  # unreadable/foreign file: fall through to a miss
        if not _validate_envelope(obj):
            return None  # stale tags (old format/schema): a plain miss
        unwrapped = (_unwrap_envelope(obj, self._count_code_loads)
                     if _crc_ok(obj) else None)
        if unwrapped is None:
            # Tags are current but the payload is not what the writer
            # produced: purge it so the broken bytes can't shadow the
            # store budget or fail again on the next read.
            self._purge_corrupt(path)
            return None
        entry, stale = unwrapped
        if stale:
            self.plan_stale += 1
            self._refresh_plan(path, obj, entry.trace)
        elif entry.trace._plan is not None:
            self.plan_loads += 1
        # Freshen the mtime so the store GC's eviction order is an LRU
        # over use, not a FIFO over writes.
        stamp = self._now()
        try:
            os.utime(path, (stamp, stamp))
        except OSError:
            pass  # evicted or replaced since the read: nothing to age
        return entry

    def _count_code_loads(self, bodies: int) -> None:
        self.code_loads += bodies

    def _refresh_plan(self, path: Path, obj: dict, trace) -> None:
        """Compile the plan of a stale read now and rewrite the entry
        with it as its plan section, its other sections as read, so the
        next read loads the plan instead of compiling it again.

        A write failure is a serve-path failure: ``ENOSPC`` demotes the
        cache to memory-only, and any other ``OSError`` (the entry or
        its directory raced away) drops the refresh, leaving the entry
        stale for a later read to refresh.
        """
        plan = _plan_section(trace)
        if not plan or self.memory_only:
            return
        try:
            self._write_sections(path, [obj[name] for name in SECTIONS[:-1]]
                                 + [plan])
        except OSError as exc:
            if getattr(exc, "errno", None) == errno.ENOSPC:
                self._degrade_memory_only(exc)

    def _purge_corrupt(self, path: Path) -> None:
        """Unlink (and count) an entry whose payload failed integrity."""
        self.corrupt_purged += 1
        try:
            path.unlink()
        except OSError:
            pass  # already evicted/replaced concurrently

    def put(self, key: TraceKey, captured: ExecResult) -> ExecResult:
        """Store the replay-only form of ``captured`` in both tiers and
        return it: the memory tier never pins the capture's memory
        image.  A disk write compiles the trace's replay plan for the
        plan section and leaves it on the trace."""
        entry = _disk_payload(captured)
        self._remember(key, entry)
        path = self._disk_path(key)
        if path is not None and not self.memory_only:
            self._put_disk(path, entry)
        return entry

    def _put_disk(self, path: Path, captured: ExecResult) -> None:
        """Disk half of :meth:`put`, with bounded failure handling.

        ``ENOSPC`` demotes the whole cache to memory-only (one-shot
        warning; the entry and all later ones stay in the LRU only);
        any other ``OSError`` is retried once, then abandoned for this
        entry.  Neither ever propagates: the in-memory layer already
        holds the capture, so a failed disk write costs sharing, not
        correctness.
        """
        for retry in (False, True):
            try:
                self._write_disk(path, captured)
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except OSError as exc:
                if getattr(exc, "errno", None) == errno.ENOSPC:
                    self._degrade_memory_only(exc)
                    return
                if not retry:
                    self.io_retries += 1
                    continue
                self.put_errors += 1
                return

    def _degrade_memory_only(self, exc: OSError) -> None:
        """Flip to memory-only after ``ENOSPC`` (warn exactly once)."""
        if not self.memory_only:
            self.memory_only = True
            warnings.warn(
                f"trace store disk write failed ({exc}); continuing "
                f"memory-only — captures will not be shared on disk",
                RuntimeWarning, stacklevel=4)

    def _write_disk(self, path: Path, captured: ExecResult) -> None:
        """Atomically (re)write one disk entry.

        The checksum is computed over the exact compressed section
        bytes handed to the envelope; an active
        :class:`~repro.sim.faults.FaultPlan` may then corrupt those
        bytes (the sections joined, so a flip lands in whichever
        section holds the middle byte) or veto the write with an
        ``OSError``, deliberately *after* the checksum, so injected
        corruption is exactly what the read-side CRC check catches.
        """
        self._write_sections(path, _pack_sections(captured))

    def _write_sections(self, path: Path, parts) -> None:
        """Atomically write an entry of compressed ``parts`` in
        :data:`SECTIONS` order, checksummed and fault-rolled as
        :meth:`_write_disk` describes."""
        envelope = {"format": DISK_FORMAT_VERSION,
                    "schema": _payload_schema(),
                    "crc32": _checksum(parts)}
        envelope.update(zip(SECTIONS, parts))
        plan = self.fault_plan
        if plan is not None:
            token = path.name
            attempt = self._write_counts.get(token, 0)
            self._write_counts[token] = attempt + 1
            plan.check_write(token, attempt)
            joined = plan.corrupted(token, attempt, b"".join(parts))
            at = 0
            for name, part in zip(SECTIONS, parts):
                envelope[name] = joined[at:at + len(part)]
                at += len(part)
        _write_envelope(path, envelope, clock=self.clock)

    def ingest_remote(self, key: TraceKey,
                      payload: Optional[ExecResult] = None
                      ) -> Optional[ExecResult]:
        """Adopt an entry a capture worker produced for this cache.

        A :class:`~repro.sim.parallel.SimPool` capture worker either wrote
        the entry to the shared disk directory (``payload=None`` — it is
        rehydrated here) or shipped the pruned payload back over the
        pipe.  Either way the capture was *paid elsewhere*: the adoption
        is counted in ``remote_puts``, not as a hit, disk hit, or miss,
        so the counters keep attributing functional work to whoever did
        it.  Returns the adopted entry, or ``None`` when a disk-routed
        entry vanished before adoption (e.g. the store's GC evicted it
        mid-capture) — the caller must then recapture locally.
        """
        captured = payload
        if captured is None:
            captured = self._load_from_disk(key)
        if captured is None:
            return None
        self._remember(key, captured)
        self.remote_puts += 1
        return captured

    def _remember(self, key: TraceKey, captured: ExecResult) -> None:
        self._entries[key] = captured
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, key: TraceKey) -> bool:
        """Cheap membership hint: tags and checksum, never the payload.

        Counts no lookup.  A disk probe validates the envelope's
        format/schema tags and payload CRC without decompressing or
        unpickling the trace itself, so callers that will immediately
        :meth:`get` on a positive answer (e.g. :meth:`~repro.sim
        .parallel.SimPool.run` classifying warm keys) don't deserialize
        every entry twice.  The CRC check means byte-level corruption
        probes False (and the pipeline recaptures cold); like
        :meth:`get`, the probe purges and counts (``corrupt_purged``) an
        entry whose tags are current but whose checksum fails, so a
        pooled sweep that classifies keys by probe reports the same
        corruption as a serial sweep that reads them by ``get``.  The
        residual price is that an entry whose checksummed bytes decode
        to a *foreign* object can still probe True and miss on the
        ``get`` — callers must treat a positive probe as a hint, not a
        guarantee.
        """
        if key in self._entries:
            return True
        path = self._disk_path(key)
        if path is None or not path.exists():
            return False
        try:
            obj = _read_envelope(path)
        # repro-lint: disable=RL201  unpickling foreign files raises any type
        except Exception:
            return False
        if not _validate_envelope(obj):
            return False
        if not _crc_ok(obj):
            self._purge_corrupt(path)
            return False
        return True

    @property
    def stats(self) -> dict:
        lookups = self.hits + self.disk_hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "remote_puts": self.remote_puts,
            "lookups": lookups,
            "entries": len(self._entries),
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "corrupt_purged": self.corrupt_purged,
            "io_retries": self.io_retries,
            "put_errors": self.put_errors,
            "memory_only": self.memory_only,
            "plan_loads": self.plan_loads,
            "plan_stale": self.plan_stale,
            "code_loads": self.code_loads,
        }
