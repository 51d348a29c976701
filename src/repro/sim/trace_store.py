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
  in-flight atomic writes; one older than :data:`DEFAULT_TMP_MAX_AGE_S`
  belongs to a crashed writer and is deleted (a live writer's tempfile
  is seconds old, never hours);
* **stale purge** — entries whose envelope no longer validates (older
  ``DISK_FORMAT_VERSION``, drifted ``ExecResult`` schema, pre-envelope
  bare pickles, truncation) would never satisfy a ``get()`` again; they
  are unlinked rather than left to shadow the budget;
* **size cap** — while the store exceeds its byte budget, the
  oldest-``mtime`` entries are evicted first.  Every disk serve
  freshens an entry's ``mtime`` (see :meth:`~repro.sim.trace_cache
  .TraceCache.get`), so the ordering is a true LRU over *use*, not a
  FIFO over write time.

Every deletion tolerates the file vanishing underneath it (another
process may evict, rewrite, or replace concurrently); losing a race
costs at worst one re-capture, never corruption — reads still only ever
see whole files thanks to the atomic-rename write protocol.

Manifest and stats
------------------
:meth:`TraceStore.manifest` lists every entry with its size, age and
checksum verdict; :attr:`TraceStore.store_stats` adds the aggregate
(entry count, total bytes, oldest/newest age, corrupt entries) to the
usual hit/miss counters so benchmark tables can surface what the
shared store actually served.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

# Re-exported for the module's historical importers: the canonical
# definitions (and the only os.environ access) live in repro.env.
from ..env import ENV_STORE_BYTES, ENV_STORE_DIR, read_env, read_env_count
from .faults import FaultPlan
from .trace_cache import (TraceCache, _crc_ok, _read_envelope,
                          _validate_envelope)

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
    """GC byte budget: explicit arg > $REPRO_TRACE_STORE_BYTES > default.

    A variable that is not a non-negative integer raises
    :class:`~repro.errors.ConfigError`; 0 is legal.
    """
    if explicit is not None:
        return int(explicit)
    env = read_env_count(ENV_STORE_BYTES)
    return DEFAULT_MAX_BYTES if env is None else env


class TraceStore(TraceCache):
    """A :class:`TraceCache` bound to the suite-wide shared directory,
    with the lifecycle policy (GC, orphan reaping, manifest) a long-lived
    multi-process store needs."""

    def __init__(self, disk_dir: Union[str, Path, None] = None,
                 max_bytes: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        super().__init__(disk_dir=resolve_store_dir(disk_dir),
                         fault_plan=fault_plan, clock=clock)
        self.max_bytes = resolve_store_bytes(max_bytes)

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
        tempfile can never look :data:`DEFAULT_TMP_MAX_AGE_S` old to its
        own store's GC, however slowly the write progresses (e.g. under
        fault-injected slow I/O).  Mixing the wall clock here with a
        synthetic write clock would reap in-flight writes.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        summary = {"reaped_tmp": 0, "purged_stale": 0, "purged_corrupt": 0,
                   "evicted": 0, "entries": 0, "bytes_before": 0,
                   "bytes_after": 0}
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return summary
        now = self._now()

        for tmp in self.disk_dir.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= DEFAULT_TMP_MAX_AGE_S:
                    tmp.unlink()
                    summary["reaped_tmp"] += 1
            except OSError:
                continue  # vanished or finished mid-scan: not an orphan

        live: list[tuple[float, int, Path]] = []
        for path in sorted(self.disk_dir.glob(_ENTRY_GLOB)):
            try:
                stat = path.stat()
                obj = _read_envelope(path)
            except OSError:
                continue  # concurrently evicted: nothing to manage
            # repro-lint: disable=RL201  unpickling garbage raises any type
            except Exception:
                obj = None  # corrupt/truncated: treat as stale below
            # Tag-only validation, then a CRC pass over the packed payload
            # bytes: a full-store scan never deserializes a single trace.
            # Checksum-failed entries would never satisfy a get() either;
            # they are counted separately so a corruption burst is
            # visible in the summary.
            if not _validate_envelope(obj):
                purged = "purged_stale"
            elif not _crc_ok(obj):
                purged = "purged_corrupt"
                self.corrupt_purged += 1
            else:
                live.append((stat.st_mtime, stat.st_size, path))
                continue
            try:
                path.unlink()
                summary[purged] += 1
            except OSError:
                pass

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
            total -= size
            survivors -= 1
            summary["evicted"] += 1
        summary["bytes_after"] = total
        summary["entries"] = survivors
        return summary

    # ------------------------------------------------------------------
    def manifest(self) -> list[dict]:
        """Per-entry view: file name, size, age, and checksum verdict.

        The ``corrupt`` flag marks entries whose payload fails its
        checksum (or whose envelope cannot be read at all) — candidates
        the next :meth:`gc` pass will purge.  The payload stays packed:
        a manifest pass never decompresses a trace.
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
            try:
                obj = _read_envelope(path)
                corrupt = _validate_envelope(obj) and not _crc_ok(obj)
            # repro-lint: disable=RL201  unpickling garbage raises any type
            except Exception:
                corrupt = True  # unreadable on disk: flagged until GC'd
            rows.append({"file": path.name, "bytes": stat.st_size,
                         "age_s": max(0.0, now - stat.st_mtime),
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
            "corrupt_entries": sum(1 for row in manifest if row["corrupt"]),
            "max_bytes": self.max_bytes,
        })
        return stats


def attach_store() -> Optional[TraceCache]:
    """The :class:`TraceStore` at ``$REPRO_TRACE_STORE``, or ``None``
    when the variable is unset (the caller keeps a private cache)."""
    if read_env(ENV_STORE_DIR):
        return TraceStore()
    return None
