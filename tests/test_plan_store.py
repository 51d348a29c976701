"""Replay plans stored beside their traces in the disk tier (envelope v9).

* **Equal plans** — the plan a disk read loads from the plan section
  equals, field for field and superblock structure for superblock
  structure, a fresh compile of the capture: for every pinned capture
  of :mod:`tests.test_trace_capture` (stored with the row threshold
  lifted) and for a looped kernel well above
  :data:`repro.timing.superblock.MIN_ROWS` issue rows.  The read never
  inflates the vector section.
* **Short plans** — below :data:`~repro.sim.trace_cache
  .PLAN_SECTION_MIN_ROWS` rows the plan section is empty; a read
  compiles the plan from the columns, neither loaded nor stale.
* **Equal replays** — a replay from a loaded plan equals
  ``replay_reference`` on every registry machine.
* **Stale, corrupt and old entries** — a plan section another compiler
  wrote is recompiled by the read (``plan_stale``), not purged, and
  rewritten so the next read loads it; so is one another interpreter
  wrote, whose superblock code never runs; a flipped byte in the
  plan or vector section fails the CRC and is purged as corrupt; a v7
  or v8 file is a stale miss that ``--gc`` purges as stale.
* **Pipes** — a warm-read trace's blob is the captured blob, and the
  entry pickles to a pool payload that replays identically; neither
  holds the final state, and no entry form replays at another VLEN.
"""

from __future__ import annotations

import errno
import importlib.util
import marshal
import os
import pickle
import warnings
import zlib
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.eval.__main__ import main
from repro.kernels import build_fmatmul
from repro.machine.registry import get_machine, list_machines
from repro.params import AraXLConfig
from repro.sim import replay_trace
from repro.sim import trace_cache
from repro.sim.faults import FaultPlan
from repro.sim.trace_cache import (SECTIONS, TraceCache, _checksum,
                                   _payload_schema, disk_path)
from repro.timing import superblock
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan, compiler_digest
from repro.uarch import build_model
from tests.plan_checks import assert_plans_equal
from tests.test_trace_capture import (FUZZ_SEEDS, PINNED, _fuzz_capture,
                                      _rebinding)

_KEY = ("plan-store", 1024, "case")
_MACHINES = sorted(list_machines())
_LOOPED_CONFIG = AraXLConfig(lanes=8)


def _capture(case):
    """A capture with its memory image, by pinned-case name or seed;
    ``"looped"`` is a fmatmul whose plan has eight superblocks."""
    if case == "rebinding":
        return _rebinding()
    if case == "looped":
        return build_fmatmul(_LOOPED_CONFIG, 64, m=32, k=64).capture(
            _LOOPED_CONFIG, verify=False)
    if isinstance(case, int):
        return _fuzz_capture(case)
    return PINNED[case][0]()


@pytest.fixture
def every_plan(monkeypatch):
    """Store the plan section of every trace, however short."""
    monkeypatch.setattr(trace_cache, "PLAN_SECTION_MIN_ROWS", 0)


def _store_and_read(tmp_path, captured):
    """Put ``captured`` through a disk cache and read it back in a
    fresh one: ``(reader, entry)``."""
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    reader = TraceCache(disk_dir=tmp_path)
    entry = reader.get(_KEY)
    assert entry is not None
    return reader, entry


def _rewrite(path, **sections) -> None:
    """Replace envelope sections in place, keeping the CRC valid."""
    envelope = pickle.loads(path.read_bytes())
    envelope.update(sections)
    envelope["crc32"] = _checksum(envelope[name] for name in SECTIONS)
    path.write_bytes(pickle.dumps(envelope))


@pytest.mark.parametrize("case", [*sorted(PINNED), "rebinding", *FUZZ_SEEDS,
                                  "looped"], ids=str)
def test_loaded_plan_equals_a_fresh_compile(tmp_path, every_plan, case):
    captured = _capture(case)
    reader, entry = _store_and_read(tmp_path, captured)
    assert (reader.stats["plan_loads"], reader.stats["plan_stale"]) == (1, 0)
    loaded = entry.trace._plan
    assert loaded is not None
    assert entry.trace._vector is not None  # the vector section stays packed
    assert_plans_equal(loaded, ReplayPlan.from_trace(captured.trace))
    if case == "looped":
        assert len(loaded.row_class) > superblock.MIN_ROWS
        assert len(superblock.bodies(loaded)) == 8


@pytest.mark.parametrize("case", ["fmatmul", "fconv2d", "rebinding",
                                  "looped"])
def test_loaded_plan_replays_like_the_reference(tmp_path, every_plan, case):
    captured = _capture(case)
    _, entry = _store_and_read(tmp_path, captured)
    engines = [TimingEngine(build_model(get_machine(m))) for m in _MACHINES]
    reports = [engine.replay(entry.trace) for engine in engines]
    assert entry.trace._vector is not None  # replay read no vector column
    for machine, engine, report in zip(_MACHINES, engines, reports):
        assert report == engine.replay_reference(captured.trace.events), \
            machine


def _compiles_once(tmp_path, monkeypatch, captured) -> tuple:
    """Read the entry of ``captured`` in a fresh cache: it serves,
    replays like the capture on every machine, and compiles exactly
    once, in the read or on first replay.  Returns the reader's stats
    and whether the plan was compiled by the read."""
    compiled = []
    real = ReplayPlan.from_trace.__func__

    def counting(cls, trace):
        compiled.append(trace)
        return real(cls, trace)

    monkeypatch.setattr(ReplayPlan, "from_trace", classmethod(counting))
    reader = TraceCache(disk_dir=tmp_path)
    entry = reader.get(_KEY)
    assert entry is not None
    in_read = entry.trace._plan is not None
    for machine in _MACHINES:
        engine = TimingEngine(build_model(get_machine(machine)))
        assert engine.replay(entry.trace) == engine.replay(captured.trace)
    assert compiled == [entry.trace]
    return reader.stats, in_read


def test_short_plan_is_not_stored(tmp_path, monkeypatch):
    """A plan below the row threshold leaves its section empty; the
    read serves the trace, whose first replay compiles it once."""
    captured = _capture("rebinding")
    assert len(ReplayPlan.from_trace(captured.trace).row_class) \
        < trace_cache.PLAN_SECTION_MIN_ROWS
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    assert pickle.loads(disk_path(tmp_path, _KEY).read_bytes())["plan"] == b""

    stats, in_read = _compiles_once(tmp_path, monkeypatch, captured)
    assert not in_read
    assert (stats["disk_hits"], stats["plan_loads"], stats["plan_stale"],
            stats["corrupt_purged"]) == (1, 0, 0, 0)


def test_stale_plan_section_recompiles(tmp_path, monkeypatch):
    """A section another compiler wrote is not a miss and not
    corruption: the trace serves and its read compiles the plan once."""
    captured = _capture("fmatmul")
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    path = disk_path(tmp_path, _KEY)
    plan = pickle.loads(path.read_bytes())["plan"]
    digest = compiler_digest()
    assert plan.startswith(digest)
    _rewrite(path, plan=bytes(b ^ 0xFF for b in digest) + plan[len(digest):])

    stats, in_read = _compiles_once(tmp_path, monkeypatch, captured)
    assert in_read
    assert (stats["disk_hits"], stats["plan_loads"], stats["plan_stale"],
            stats["corrupt_purged"]) == (1, 0, 1, 0)
    assert path.exists()


def _after_a_compiler_change(tmp_path, monkeypatch):
    """Warm a store with the fmatmul capture, then give this process's
    compiler another digest: ``(capture, entry path, new digest)``."""
    captured = _capture("fmatmul")
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    digest = bytes(b ^ 0xFF for b in compiler_digest())
    monkeypatch.setattr(trace_cache, "compiler_digest", lambda: digest)
    return captured, disk_path(tmp_path, _KEY), digest


def test_stale_plan_section_is_refreshed_once(tmp_path, monkeypatch):
    """The first read after a compiler change compiles the plan and
    rewrites the section; the next fresh cache loads it."""
    captured, path, digest = _after_a_compiler_change(tmp_path, monkeypatch)
    first = TraceCache(disk_dir=tmp_path)
    assert first.get(_KEY) is not None
    assert (first.stats["plan_stale"], first.stats["plan_loads"]) == (1, 0)
    assert pickle.loads(path.read_bytes())["plan"].startswith(digest)

    second = TraceCache(disk_dir=tmp_path)
    entry = second.get(_KEY)
    stats = second.stats
    assert (stats["plan_loads"], stats["plan_stale"],
            stats["corrupt_purged"]) == (1, 0, 0)
    assert entry.trace._vector is not None  # loaded, not compiled
    assert_plans_equal(entry.trace._plan,
                       ReplayPlan.from_trace(captured.trace))


@pytest.fixture
def digest_cache():
    """Recompute the compiler digest under this test's patches, and
    under the real interpreter after it."""
    compiler_digest.cache_clear()
    yield
    compiler_digest.cache_clear()


def test_section_from_another_interpreter_is_stale(tmp_path, monkeypatch,
                                                   digest_cache):
    """Stored superblock code is bytecode: under another magic number the
    plan section reads as stale, the read recompiles plan and bodies
    without running the stored code, and rewrites the section once."""
    captured = _capture("looped")
    want = replay_trace(_LOOPED_CONFIG, captured).timing
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    magic = importlib.util.MAGIC_NUMBER
    monkeypatch.setattr(importlib.util, "MAGIC_NUMBER",
                        bytes([magic[0] ^ 1]) + magic[1:])
    compiler_digest.cache_clear()
    loaded = []

    def loads(data):
        loaded.append(data)
        return marshal.loads(data)

    monkeypatch.setattr(superblock, "marshal", SimpleNamespace(
        loads=loads, dumps=marshal.dumps))
    monkeypatch.setattr(superblock, "_FUNCTIONS", {})

    first = TraceCache(disk_dir=tmp_path)
    entry = first.get(_KEY)
    assert replay_trace(_LOOPED_CONFIG, entry).timing == want
    stats = first.stats
    assert (stats["plan_stale"], stats["plan_loads"], stats["code_loads"],
            stats["corrupt_purged"]) == (1, 0, 0, 0)
    assert loaded == []  # the foreign code never ran

    monkeypatch.setattr(superblock, "_FUNCTIONS", {})
    second = TraceCache(disk_dir=tmp_path)
    entry = second.get(_KEY)
    assert replay_trace(_LOOPED_CONFIG, entry).timing == want
    stats = second.stats
    assert (stats["plan_loads"], stats["plan_stale"],
            stats["corrupt_purged"]) == (1, 0, 0)
    assert stats["code_loads"] == len(loaded) > 0


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
def test_failed_refresh_still_serves(tmp_path, monkeypatch, code):
    """A refresh that cannot write is a serve-path failure: the read
    serves its compiled plan, ``ENOSPC`` demotes the cache to
    memory-only, and the entry stays stale for a later read."""
    _, path, digest = _after_a_compiler_change(tmp_path, monkeypatch)

    def full(self, path, parts):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(TraceCache, "_write_sections", full)
    reader = TraceCache(disk_dir=tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry = reader.get(_KEY)
    assert entry is not None and entry.trace._plan is not None
    assert reader.memory_only == (code == errno.ENOSPC)
    assert len(caught) == (code == errno.ENOSPC)
    assert not pickle.loads(path.read_bytes())["plan"].startswith(digest)


@pytest.mark.parametrize("section", ["plan", "vector"])
def test_flipped_section_is_purged_as_corrupt(tmp_path, section):
    TraceCache(disk_dir=tmp_path).put(_KEY, _capture("fmatmul"))
    path = disk_path(tmp_path, _KEY)
    envelope = pickle.loads(path.read_bytes())
    flipped = FaultPlan(seed=0, corrupt_rate=1.0).corrupted(
        path.name, 0, envelope[section])
    assert flipped != envelope[section]
    envelope[section] = flipped
    path.write_bytes(pickle.dumps(envelope))

    reader = TraceCache(disk_dir=tmp_path)
    assert reader.get(_KEY) is None
    stats = reader.stats
    assert (stats["misses"], stats["corrupt_purged"]) == (1, 1)
    assert not path.exists()


def _assert_stale_miss(tmp_path, capsys, envelope) -> None:
    """An old-format entry probes False, reads as a plain miss (not
    corruption) and is purged as stale by ``--gc``."""
    path = disk_path(tmp_path, _KEY)
    path.write_bytes(pickle.dumps(envelope))

    cache = TraceCache(disk_dir=tmp_path)
    assert not cache.probe(_KEY)
    assert cache.get(_KEY) is None
    assert (cache.stats["misses"], cache.stats["corrupt_purged"]) == (1, 0)
    assert path.exists()

    assert main(["fig9", "--trace-store", str(tmp_path), "--gc"]) == 0
    (line,) = [row for row in capsys.readouterr().out.splitlines()
               if row.startswith("[trace store gc]")]
    assert "'purged_stale': 1" in line and "'purged_corrupt': 0" in line
    assert not path.exists()


def test_v7_entry_is_a_stale_miss_and_gc_purges_it(tmp_path, capsys):
    captured = _capture("fmatmul")
    payload = zlib.compress(pickle.dumps(
        {"state": captured.state, "program": captured.program,
         "retired": captured.retired, "halted": captured.halted,
         "trace_blob": captured.trace.blob}))
    _assert_stale_miss(tmp_path, capsys, {
        "format": 7, "schema": _payload_schema(),
        "crc32": zlib.crc32(payload), "payload": payload})


def test_v8_entry_is_a_stale_miss_and_gc_purges_it(tmp_path, capsys):
    # The four sections of a current write under a valid CRC, but a
    # payload that holds the final state, register file included.
    captured = _capture("fmatmul")
    TraceCache(disk_dir=tmp_path).put(_KEY, captured)
    envelope = pickle.loads(disk_path(tmp_path, _KEY).read_bytes())
    envelope["format"] = 8
    envelope["payload"] = zlib.compress(pickle.dumps(
        {"state": captured.state, "program": captured.program,
         "retired": captured.retired, "halted": captured.halted}))
    envelope["crc32"] = _checksum(envelope[name] for name in SECTIONS)
    _assert_stale_miss(tmp_path, capsys, envelope)


def test_warm_read_blob_and_pool_payload(tmp_path):
    captured = _capture("looped")
    _, entry = _store_and_read(tmp_path, captured)
    want = replay_trace(_LOOPED_CONFIG, captured).timing
    shipped = pickle.loads(pickle.dumps(entry))
    assert entry.trace.blob == captured.trace.blob
    assert shipped.trace.blob == captured.trace.blob
    assert replay_trace(_LOOPED_CONFIG, shipped).timing == want
    assert replay_trace(_LOOPED_CONFIG, entry).timing == want
    # Replay reads no final state: only its VLEN is stored and shipped.
    for form in (entry, shipped):
        assert form.state is None
        assert form.vlen_bits == captured.vlen_bits


def test_every_entry_form_refuses_another_vlen(tmp_path):
    captured = _capture("fmatmul")
    other = AraXLConfig(lanes=2 * captured.vlen_bits // 1024)
    memory = TraceCache().put(_KEY, captured)
    _, read = _store_and_read(tmp_path, captured)
    shipped = pickle.loads(pickle.dumps(read))
    for form in (captured, memory, read, shipped):
        assert form.vlen_bits == captured.vlen_bits != other.vlen_bits
        with pytest.raises(ConfigError, match="VLEN"):
            replay_trace(other, form)
