"""Shared benchmark-suite trace store: one disk cache, a real lifecycle.

PR 2 made the :class:`~repro.sim.trace_cache.TraceCache` disk layer safe
under concurrent writers; this module turns that layer into a *suite-wide
store*.  The paper's evaluation revisits many identical ``(program,
VLEN, setup)`` operating points across Fig 6/7, Table I/III and the
ablation sweeps, so every benchmark and :func:`~repro.eval.runner
.run_experiment` call attaches to **one** disk directory instead of each
building a private cache — a capture paid by ``bench_fig6`` is a disk
hit for ``bench_table1`` (and for the next run of the whole suite).

Store resolution
----------------
The store directory is resolved in priority order:

1. an explicit path (function argument / ``pytest --trace-store`` /
   ``python -m repro.eval --trace-store``);
2. the :data:`ENV_STORE_DIR` (``REPRO_TRACE_STORE``) environment
   variable;
3. the suite default ``benchmarks/out/trace_cache`` (gitignored).

The GC byte budget resolves the same way through :data:`ENV_STORE_BYTES`
(``REPRO_TRACE_STORE_BYTES``), defaulting to
:data:`DEFAULT_MAX_BYTES`.

Lifecycle policy (:meth:`TraceStore.gc`)
----------------------------------------
A shared long-lived directory needs eviction, which the plain cache
never had.  One ``gc()`` pass, safe to run while other processes read
and write the same directory:

* **orphan reaping** — ``*.tmp`` files are the private tempfiles of
  in-flight atomic writes; one older than ``tmp_max_age_s`` belongs to a
  crashed writer and is deleted (a live writer's tempfile is seconds
  old, never hours);
* **stale purge** — entries whose envelope no longer validates (older
  ``DISK_FORMAT_VERSION``, drifted ``ExecResult`` schema, pre-envelope
  bare pickles, truncation) would never satisfy a ``get()`` again; they
  are unlinked rather than left to shadow the budget;
* **size cap** — while the store exceeds its byte budget, the
  oldest-``mtime`` entries are evicted first.  :meth:`TraceStore.get`
  freshens an entry's ``mtime`` on every disk hit (and persists its
  ``hits_served`` bump in a few-byte ``.hits`` sidecar — never by
  rewriting the multi-KiB envelope it just read), so the ordering is a
  true LRU over *use*, not a FIFO over write time — and a future GC
  can weight eviction by the persisted per-entry popularity;
* **sidecar hygiene** — a ``.hits`` sidecar whose entry is gone
  (evicted by a foreign process, or a crash between the two unlinks)
  is reaped.

Every deletion tolerates the file vanishing underneath it (another
process may evict, rewrite, or replace concurrently); losing a race
costs at worst one re-capture, never corruption — reads still only ever
see whole files thanks to the atomic-rename write protocol.

Manifest and stats
------------------
:meth:`TraceStore.manifest` lists every entry with its size, age and
``hits_served`` count; :attr:`TraceStore.store_stats` adds the
aggregate (entry count, total bytes, oldest/newest age, total hits
served) to the usual hit/miss counters so benchmark tables can surface
what the shared store actually served.
"""

from __future__ import annotations

import errno
import os
import pickle
import tempfile
from pathlib import Path
from typing import Callable, Optional, Union

# Re-exported for the module's historical importers: the canonical
# definitions (and the only os.environ access) live in repro.env.
from ..env import ENV_STORE_BYTES, ENV_STORE_DIR, read_env
from .faults import FaultPlan
from .trace_cache import (DEFAULT_CAPACITY, TraceCache, _crc_ok,
                          _validate_envelope, sidecar_path)

#: Suite-default store location: ``benchmarks/out/trace_cache`` (kept
#: under the gitignored bench output directory, so a checkout never
#: tracks cache files), anchored to the source checkout rather than the
#: caller's working directory — ``TraceStore()`` from any cwd resolves
#: to the same suite-wide store.
DEFAULT_STORE_DIR = (Path(__file__).resolve().parents[3]
                     / "benchmarks" / "out" / "trace_cache")

#: Default GC byte budget.  A captured trace entry for the reduced-scale
#: sweeps is a few hundred KiB; 256 MiB comfortably holds the whole
#: suite's cross-product several times over.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``*.tmp`` file older than this is a crashed writer's orphan.
DEFAULT_TMP_MAX_AGE_S = 3600.0

#: Glob of live store entries (matches trace_cache.disk_path naming).
_ENTRY_GLOB = "trace_*.pkl"

#: Glob of hit-counter sidecars (see trace_cache.sidecar_path).
_SIDECAR_GLOB = "trace_*.pkl.hits"


def _unlink_quiet(path: Path) -> bool:
    """Best-effort unlink; True when this call removed the file."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _read_hits(side: Path) -> int:
    """Count persisted in a sidecar: 0 for absent, torn or foreign bytes.

    The counter is advisory (a lost or garbled sidecar costs popularity
    accuracy, never correctness), so every failure mode degrades to
    "never served" rather than an error.
    """
    try:
        return int(side.read_bytes())
    except (OSError, ValueError):
        return 0


def _write_hits(side: Path, count: int,
                clock: Optional[Callable[[], float]] = None) -> int:
    """Atomically write ``count`` to sidecar ``side``; returns the bytes
    written.  Same tempfile-and-rename protocol as envelope writes (a
    crashed writer leaves a ``*.tmp`` the GC reaps; ``clock`` stamps it
    so an injected-clock store judges its age consistently)."""
    data = b"%d" % count
    fd, tmp_name = tempfile.mkstemp(dir=str(side.parent),
                                    prefix=side.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if clock is not None:
            stamp = clock()
            os.utime(tmp_name, (stamp, stamp))
        os.replace(tmp_name, side)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(data)


def resolve_store_dir(explicit: Union[str, Path, None] = None,
                      default: Union[str, Path] = DEFAULT_STORE_DIR) -> Path:
    """Store directory: explicit arg > $REPRO_TRACE_STORE > default."""
    if explicit is not None:
        return Path(explicit)
    env = read_env(ENV_STORE_DIR)
    if env:
        return Path(env)
    return Path(default)


def resolve_store_bytes(explicit: Optional[int] = None) -> int:
    """GC byte budget: explicit arg > $REPRO_TRACE_STORE_BYTES > default."""
    if explicit is not None:
        return int(explicit)
    env = read_env(ENV_STORE_BYTES)
    if env:
        return int(env)
    return DEFAULT_MAX_BYTES


class TraceStore(TraceCache):
    """A :class:`TraceCache` bound to the suite-wide shared directory,
    with the lifecycle policy (GC, orphan reaping, manifest) a long-lived
    multi-process store needs."""

    def __init__(self, disk_dir: Union[str, Path, None] = None,
                 capacity: int = DEFAULT_CAPACITY,
                 max_bytes: Optional[int] = None,
                 tmp_max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
                 fault_plan: Optional[FaultPlan] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        super().__init__(capacity=capacity,
                         disk_dir=resolve_store_dir(disk_dir),
                         fault_plan=fault_plan, clock=clock)
        self.max_bytes = resolve_store_bytes(max_bytes)
        self.tmp_max_age_s = float(tmp_max_age_s)
        #: Total sidecar bytes written persisting warm-hit bumps.
        self.serve_write_bytes = 0
        #: Sidecar bytes the most recent bump wrote (0 = none yet).
        self.last_serve_write_bytes = 0
        #: Bumps abandoned on a non-ENOSPC ``OSError`` (entry raced away).
        self.serve_note_errors = 0

    # ------------------------------------------------------------------
    def _note_disk_serve(self, path, envelope: dict) -> None:
        """Persist the popularity bump for one served entry.

        The bump lands in the entry's tiny ``.hits`` sidecar — a warm
        hit writes O(counter) bytes, never the multi-KiB envelope it
        just read (rewriting the whole envelope per hit was the old
        behaviour, turning every warm serve into a full-entry disk
        write).  The entry's own ``mtime`` is then freshened so the
        GC's eviction order stays an LRU over *use* rather than a FIFO
        over writes.  The counter is advisory: concurrent readers race
        last-writer-wins (a lost bump costs accuracy, never
        correctness).

        Failure handling mirrors :meth:`~repro.sim.trace_cache
        .TraceCache.put`: ``ENOSPC`` demotes the store to memory-only
        (one-shot warning — and once demoted, later serves skip the
        disk write entirely); any other ``OSError`` means the entry or
        its directory raced away (evicted, replaced, reaped) and the
        bump is simply dropped (counted in ``serve_note_errors``).
        """
        if self.memory_only:
            return
        side = sidecar_path(path)
        count = _read_hits(side) + 1  # serves since the entry was written
        plan = self.fault_plan
        try:
            if plan is not None:
                token = side.name
                attempt = self._write_counts.get(token, 0)
                self._write_counts[token] = attempt + 1
                plan.check_write(token, attempt)
            written = _write_hits(side, count, clock=self.clock)
            stamp = self._now()
            os.utime(path, (stamp, stamp))
        except OSError as exc:
            if getattr(exc, "errno", None) == errno.ENOSPC:
                self._degrade_memory_only(exc)
                return
            self.serve_note_errors += 1
            return
        self.serve_write_bytes += written
        self.last_serve_write_bytes = written

    # ------------------------------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> dict:
        """Run one lifecycle pass over the store directory.

        Reaps crashed-writer ``*.tmp`` orphans, purges entries whose
        envelope no longer validates or whose payload fails its
        checksum, then evicts oldest-``mtime`` entries until the store
        fits ``max_bytes`` (default: the store's configured budget).
        Safe to run concurrently with readers and writers in other
        processes.  Returns a summary dict.

        Orphan ages are judged by the store's *injected* clock
        (``self._now()``), the same clock :func:`~repro.sim.trace_cache
        ._write_envelope` stamps tempfiles with — so a live writer's
        tempfile can never look ``tmp_max_age_s`` old to its own
        store's GC, however slowly the write progresses (e.g. under
        fault-injected slow I/O).  Mixing the wall clock here with a
        synthetic write clock would reap in-flight writes.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        summary = {"reaped_tmp": 0, "purged_stale": 0, "purged_corrupt": 0,
                   "evicted": 0, "reaped_sidecars": 0, "entries": 0,
                   "bytes_before": 0, "bytes_after": 0}
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return summary
        now = self._now()

        for tmp in self.disk_dir.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= self.tmp_max_age_s:
                    tmp.unlink()
                    summary["reaped_tmp"] += 1
            except OSError:
                continue  # vanished or finished mid-scan: not an orphan

        live: list[tuple[float, int, Path]] = []
        for path in sorted(self.disk_dir.glob(_ENTRY_GLOB)):
            try:
                stat = path.stat()
                with path.open("rb") as fh:
                    obj = pickle.load(fh)
            except OSError:
                continue  # concurrently evicted: nothing to manage
            # repro-lint: disable=RL201  unpickling garbage raises any type
            except Exception:
                obj = None  # corrupt/truncated: treat as stale below
            # Tag-only validation: the nested payload bytes stay packed,
            # so a full-store scan never deserializes a single trace.
            if not _validate_envelope(obj):
                try:
                    path.unlink()
                    summary["purged_stale"] += 1
                except OSError:
                    pass
                _unlink_quiet(sidecar_path(path))
                continue
            # Integrity: a CRC pass over the packed payload bytes (still
            # no deserialization).  Checksum-failed entries would never
            # satisfy a get() — purge and count them separately so a
            # corruption burst is visible in the summary.
            if not _crc_ok(obj):
                try:
                    path.unlink()
                    summary["purged_corrupt"] += 1
                except OSError:
                    pass
                _unlink_quiet(sidecar_path(path))
                self.corrupt_purged += 1
                continue
            live.append((stat.st_mtime, stat.st_size, path))

        total = sum(size for _, size, _ in live)
        summary["bytes_before"] = total
        live.sort(key=lambda item: (item[0], item[2].name))  # oldest first
        survivors = len(live)
        for mtime, size, path in live:
            if total <= budget:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # another process evicted it: bytes reclaimed anyway
            except OSError:
                continue  # undeletable: it still counts against the budget
            _unlink_quiet(sidecar_path(path))
            total -= size
            survivors -= 1
            summary["evicted"] += 1
        summary["bytes_after"] = total
        summary["entries"] = survivors

        # Sidecars never outlive their entry: one orphaned by a crash
        # between an eviction and its sidecar unlink (or by a foreign
        # process's eviction) is reaped here.
        for side in self.disk_dir.glob(_SIDECAR_GLOB):
            entry = side.with_name(side.name[:-len(".hits")])
            if not entry.exists() and _unlink_quiet(side):
                summary["reaped_sidecars"] += 1
        return summary

    # ------------------------------------------------------------------
    def manifest(self) -> list[dict]:
        """Per-entry view: file name, size, age, and hits served.

        ``hits_served`` is the envelope's base count plus the ``.hits``
        sidecar's serves-since-write (the payload stays packed — a
        manifest pass never decompresses a trace); an unreadable
        envelope or absent sidecar contributes 0.  The ``corrupt`` flag
        marks entries whose payload fails its checksum (or whose
        envelope cannot be read at all) — candidates the next
        :meth:`gc` pass will purge.
        """
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        now = self._now()
        rows = []
        for path in sorted(self.disk_dir.glob(_ENTRY_GLOB)):
            try:
                stat = path.stat()
            except OSError:
                continue
            hits_served = _read_hits(sidecar_path(path))
            corrupt = False
            try:
                with path.open("rb") as fh:
                    obj = pickle.load(fh)
                if isinstance(obj, dict):
                    hits_served += int(obj.get("hits_served", 0))
                    corrupt = (_validate_envelope(obj)
                               and not _crc_ok(obj))
            # repro-lint: disable=RL201  unpickling garbage raises any type
            except Exception:
                corrupt = True  # unreadable on disk: flagged until GC'd
            rows.append({"file": path.name, "bytes": stat.st_size,
                         "age_s": max(0.0, now - stat.st_mtime),
                         "hits_served": hits_served,
                         "corrupt": corrupt})
        return rows

    @property
    def store_stats(self) -> dict:
        """Aggregate disk-side view plus the in-memory cache counters."""
        manifest = self.manifest()
        ages = [row["age_s"] for row in manifest]
        stats = dict(self.stats)
        stats.update({
            "dir": str(self.disk_dir),
            "disk_entries": len(manifest),
            "disk_bytes": sum(row["bytes"] for row in manifest),
            "oldest_age_s": max(ages) if ages else 0.0,
            "newest_age_s": min(ages) if ages else 0.0,
            "hits_served": sum(row["hits_served"] for row in manifest),
            "corrupt_entries": sum(1 for row in manifest if row["corrupt"]),
            "max_bytes": self.max_bytes,
            "serve_write_bytes": self.serve_write_bytes,
            "serve_note_errors": self.serve_note_errors,
        })
        return stats


def attach_store() -> Optional[TraceCache]:
    """The :class:`TraceStore` at ``$REPRO_TRACE_STORE``, or ``None``
    when the variable is unset (the caller keeps a private cache)."""
    if read_env(ENV_STORE_DIR):
        return TraceStore()
    return None
