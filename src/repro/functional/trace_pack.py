"""Columnar (struct-of-arrays) trace packing: the v6 envelope payload.

A captured :class:`~repro.functional.trace.DynamicTrace` is a list of
small Python objects — perfect for capture, terrible for a disk tier:
pickling builds (and unpickling rebuilds) one heap object per retired
instruction, which dominates warm-path latency once traces reach 10^5
events.  This module flattens the event stream into per-kind numpy
columns ("struct of arrays"):

* a ``tags`` byte per event (scalar / vsetvl / vector / fallback) keeps
  the original interleaving, so the stream order — which the timing
  engine replays sequentially — survives exactly;
* per-kind columns (opcode ids, operand program indices, ``vl`` /
  ``sew`` / ``lmul``, memory base/stride/count, element widths) hold the
  payload as raw little-endian array bytes;
* a small pickled header maps each column name to its ``(dtype, offset,
  count)`` slice of the blob, so readers materialize views with
  :func:`numpy.frombuffer` — zero-copy over the envelope's decompressed
  payload bytes;
* the rare event that does not flatten (an unknown subclass, an
  out-of-range field, an instruction that is not part of the program)
  is pickled whole into a ``fallback`` map keyed by event index; its
  tag marks the position, so mixed traces round-trip losslessly.

Vector events reference their :class:`~repro.isa.instructions
.Instruction` by *index into the program's instruction tuple* — the
program ships alongside the blob in the envelope payload, so unpacking
re-links events to the very instruction objects the replay decode
caches key on.

The per-event flattening lives in one place, :func:`build_columns`:
:func:`pack_trace` serializes its columns, and the timing engine's plan
compiler (:mod:`repro.timing.replay_plan`) compiles an object trace
from the very same columns.

:class:`PackedTrace` is the lazy reader: aggregate counters and column
views are available without materializing a single event object — the
replay plan compiles straight from the views — and
:meth:`PackedTrace.events` rebuilds the plain event list on first use
for consumers that genuinely need objects (``iter()``, golden checks).
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterator

import numpy as np

from ..isa.instructions import MemPattern
from ..isa.program import Program
from .trace import (DynamicTrace, MemAccess, ScalarEvent, VectorEvent,
                    VsetvlEvent)

__all__ = ["PACK_VERSION", "PackedTrace", "build_columns", "pack_trace",
           "unpack_trace"]

#: Version of the column layout inside the blob (independent of the
#: envelope's ``DISK_FORMAT_VERSION``, which gates the file as a whole).
PACK_VERSION = 1

#: Leading magic of every packed-trace blob.
MAGIC = b"RVT6"

#: Event tags (one byte per event, preserving stream order).
TAG_SCALAR, TAG_VSETVL, TAG_VECTOR, TAG_FALLBACK = 0, 1, 2, 3

#: Fixed pattern vocabulary: index in this tuple is the on-disk code.
PATTERNS = (MemPattern.NONE, MemPattern.UNIT, MemPattern.STRIDED,
            MemPattern.INDEXED, MemPattern.MASK)
_PATTERN_CODE = {p: i for i, p in enumerate(PATTERNS)}

#: Column table: ``(name, dtype, count group, delta-coded)``.  The
#: count group keys how many rows a column has — ``t``: one per event,
#: ``s``: one per packed scalar, ``w``: one per packed vsetvl, ``v``:
#: one per packed vector event (memory rows are zero for events
#: without a MemAccess; ``v_flags`` bit 0 says whether one is present,
#: bit 1 whether it is a store).  Because dtypes and order are static,
#: the blob header only carries the four group counts; offsets are
#: recomputed by :func:`_layout` on both sides.  Wide integer columns
#: are *delta-coded* (first value kept, successive differences after
#: it, exact under two's-complement wraparound): traces are dominated
#: by near-constant or striding sequences — ``vl``, strides, unit-
#: stride addresses — which become zero/constant runs the envelope's
#: zlib pass collapses.
_COLUMNS = (
    ("tags", "u1", "t", False),
    ("s_kind", "u2", "s", False),
    ("s_addr", "i8", "s", True),
    ("s_nbytes", "i8", "s", True),
    ("w_vl", "i8", "w", True),
    ("w_sew", "u1", "w", False),
    ("w_lmul", "u1", "w", False),
    ("v_instr", "i4", "v", True),
    ("v_vl", "i8", "v", True),
    ("v_sew", "u1", "v", False),
    ("v_lmul", "u1", "v", False),
    ("v_slide", "i8", "v", True),
    ("v_flags", "u1", "v", False),
    ("m_base", "i8", "v", True),
    ("m_stride", "i8", "v", True),
    ("m_count", "i8", "v", True),
    ("m_ew", "u1", "v", False),
    ("m_pattern", "u1", "v", False),
)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _layout(counts: dict) -> tuple[dict, int]:
    """Column table ``{name: (dtype, offset, count)}`` plus total bytes,
    computed from the static schema and the four group counts — the
    same arithmetic on the pack and unpack side, so the header never
    has to spell the table out."""
    table: dict[str, tuple] = {}
    offset = 0
    for name, dtype, group, _ in _COLUMNS:
        dt = np.dtype(dtype)
        offset = _align8(offset)
        count = counts[group]
        table[name] = (dt, offset, count)
        offset += dt.itemsize * count
    return table, offset


def _delta_encode(arr: np.ndarray) -> np.ndarray:
    """First value, then successive differences.  Two's-complement
    wraparound makes :func:`_delta_decode` an exact inverse even at the
    i64 boundaries."""
    out = arr.copy()
    out[1:] -= arr[:-1]
    return out


def _delta_decode(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr, dtype=arr.dtype)


# ----------------------------------------------------------------------
# Column building
# ----------------------------------------------------------------------
def _group_columns(rows: list, group: str) -> dict[str, np.ndarray]:
    """Transpose one count group's row tuples into its typed columns."""
    spec = [(name, dtype) for name, dtype, g, _ in _COLUMNS if g == group]
    table = np.array(rows, dtype=np.int64).reshape(len(rows), len(spec))
    return {name: table[:, j].astype(dtype)
            for j, (name, dtype) in enumerate(spec)}


def build_columns(events, instructions=None) -> tuple:
    """One pass over ``events`` into the v6 columns (not delta-coded).

    Returns ``(columns, kinds, fallback, instructions)``: the column
    dict keyed like :data:`_COLUMNS`, the scalar-kind vocabulary, the
    ``{event index: event}`` map of events that do not fit a column,
    and the instruction tuple ``v_instr`` indexes.  With
    ``instructions`` given (a program's instruction tuple), a vector
    event whose instruction is not in it falls back; with ``None`` the
    tuple is grown from the events in first-use order.
    """
    grow = instructions is None
    instrs = [] if grow else instructions
    instr_index = {id(instr): i for i, instr in enumerate(instrs)}
    tags = bytearray()
    scalars: list = []
    vsetvls: list = []
    vectors: list = []
    kinds: list[str] = []
    kind_code: dict[str, int] = {}
    fallback: dict[int, object] = {}

    # The range checks are inlined: this loop runs once per event on
    # every pack and every object-trace plan compile.
    lo, hi = _I64_MIN, _I64_MAX
    for index, event in enumerate(events):
        cls = event.__class__
        if cls is ScalarEvent:
            kind, addr, nbytes = event.kind, event.addr, event.nbytes
            if (isinstance(kind, str)
                    and isinstance(nbytes, int) and lo <= nbytes <= hi
                    and (addr is None
                         or (isinstance(addr, int) and 0 <= addr <= hi))):
                code = kind_code.get(kind)
                if code is None:
                    code = kind_code[kind] = len(kinds)
                    kinds.append(kind)
                    if code > 0xFFFF:
                        raise ValueError("scalar kind vocabulary overflow")
                tags.append(TAG_SCALAR)
                scalars.append((code, -1 if addr is None else addr, nbytes))
                continue
        elif cls is VsetvlEvent:
            vl, sew, lmul = event.vl, event.sew, event.lmul
            if (isinstance(vl, int) and lo <= vl <= hi
                    and isinstance(sew, int) and 0 <= sew <= 255
                    and isinstance(lmul, int) and 0 <= lmul <= 255):
                tags.append(TAG_VSETVL)
                vsetvls.append((vl, sew, lmul))
                continue
        elif cls is VectorEvent:
            instr = event.instr
            iidx = instr_index.get(id(instr))
            if iidx is None and grow:
                iidx = instr_index[id(instr)] = len(instrs)
                instrs.append(instr)
            vl, sew, lmul = event.vl, event.sew, event.lmul
            slide, mem = event.slide_amount, event.mem
            if (iidx is not None and iidx <= 0x7FFFFFFF
                    and isinstance(vl, int) and lo <= vl <= hi
                    and isinstance(sew, int) and 0 <= sew <= 255
                    and isinstance(lmul, int) and 0 <= lmul <= 255
                    and isinstance(slide, int) and lo <= slide <= hi):
                if mem is None:
                    tags.append(TAG_VECTOR)
                    vectors.append((iidx, vl, sew, lmul, slide,
                                    0, 0, 0, 0, 0, 0))
                    continue
                if type(mem) is MemAccess:
                    base, stride, count = mem.base, mem.stride, mem.count
                    ew, code = mem.ew_bytes, _PATTERN_CODE.get(mem.pattern)
                    if (code is not None
                            and isinstance(base, int) and lo <= base <= hi
                            and isinstance(stride, int)
                            and lo <= stride <= hi
                            and isinstance(count, int) and lo <= count <= hi
                            and isinstance(ew, int) and 0 <= ew <= 255):
                        tags.append(TAG_VECTOR)
                        vectors.append((iidx, vl, sew, lmul, slide,
                                        3 if mem.is_store else 1, base,
                                        stride, count, ew, code))
                        continue
        tags.append(TAG_FALLBACK)
        fallback[index] = event

    columns = {"tags": np.frombuffer(bytes(tags), dtype=np.uint8)}
    columns.update(_group_columns(scalars, "s"))
    columns.update(_group_columns(vsetvls, "w"))
    columns.update(_group_columns(vectors, "v"))
    return columns, tuple(kinds), fallback, tuple(instrs)


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack_trace(trace, program: Program) -> bytes:
    """Flatten ``trace`` into a self-describing columnar blob.

    Every event that fits the column schema is encoded as array rows;
    anything else (foreign event classes, out-of-range fields,
    instructions absent from ``program``) is pickled whole into the
    fallback map.  The result round-trips through
    :func:`unpack_trace` to an event stream with identical contents.
    """
    cols, kinds, fallback, _ = build_columns(trace, program.instructions)

    # -- assemble the blob --------------------------------------------
    counts = {"t": len(cols["tags"]), "s": len(cols["s_kind"]),
              "w": len(cols["w_vl"]), "v": len(cols["v_instr"])}
    table, _ = _layout(counts)
    header = {
        "pack": PACK_VERSION,
        "counts": (counts["t"], counts["s"], counts["w"], counts["v"]),
        "scalar_count": trace.scalar_count,
        "vector_count": trace.vector_count,
        "total_flops": trace.total_flops,
        "kinds": kinds,
        "fallback": (pickle.dumps(fallback,
                                  protocol=pickle.HIGHEST_PROTOCOL)
                     if fallback else b""),
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    region = _align8(len(MAGIC) + 4 + len(header_bytes))
    parts = [MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
             b"\x00" * (region - len(MAGIC) - 4 - len(header_bytes))]
    cursor = 0
    for name, dtype, _, delta in _COLUMNS:
        dt, off, _ = table[name]
        arr = cols[name]
        if delta and len(arr) > 1:
            arr = _delta_encode(arr)
        if off > cursor:
            parts.append(b"\x00" * (off - cursor))
            cursor = off
        parts.append(arr.tobytes())
        cursor += arr.nbytes
    return b"".join(parts)


# ----------------------------------------------------------------------
# Unpacking
# ----------------------------------------------------------------------
def unpack_trace(blob: bytes, program: Program) -> "PackedTrace":
    """Wrap a packed blob as a lazy :class:`PackedTrace`.

    Validates the magic, layout version, and column table; raises
    ``ValueError`` for anything that is not a well-formed v6 blob (the
    disk tier treats that as a corrupt entry and purges it).
    """
    packed = PackedTrace.__new__(PackedTrace)
    _parse_into(packed, blob, program)
    return packed


def _parse_into(packed: "PackedTrace", blob, program: Program) -> None:
    if bytes(blob[:4]) != MAGIC:
        raise ValueError("not a packed-trace blob (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + header_len > len(blob):
        raise ValueError("packed-trace header overruns the blob")
    header = pickle.loads(bytes(blob[8:8 + header_len]))
    if not isinstance(header, dict) or header.get("pack") != PACK_VERSION:
        raise ValueError("unsupported packed-trace layout version")
    region = _align8(8 + header_len)
    raw_counts = header.get("counts")
    if (not isinstance(raw_counts, tuple) or len(raw_counts) != 4
            or any((not isinstance(c, int)) or c < 0 for c in raw_counts)):
        raise ValueError("packed-trace header has malformed counts")
    counts = dict(zip("tswv", raw_counts))
    table, total = _layout(counts)
    if region + total > len(blob):
        raise ValueError("packed-trace columns overrun the blob")
    columns: dict[str, np.ndarray] = {}
    for name, _, _, delta in _COLUMNS:
        dt, off, count = table[name]
        arr = np.frombuffer(blob, dtype=dt, count=count,
                            offset=region + off)
        if delta and count > 1:
            arr = _delta_decode(arr)
        columns[name] = arr
    packed.blob = blob
    packed.program = program
    packed.n_events = counts["t"]
    packed.scalar_count = int(header["scalar_count"])
    packed.vector_count = int(header["vector_count"])
    packed.total_flops = header["total_flops"]
    packed.kinds = header["kinds"]
    packed.columns = columns
    packed.fallback_bytes = header["fallback"]
    packed._events = None
    packed._plan = None


class PackedTrace:
    """Lazy columnar view of a packed trace.

    Quacks like :class:`~repro.functional.trace.DynamicTrace` for the
    consumers that matter (aggregate counters, ``len``, iteration,
    ``vector_events``) while keeping the payload as flat numpy column
    views over the blob bytes until someone genuinely needs event
    objects.  ``_plan`` caches the timing engine's compiled replay plan
    exactly like ``DynamicTrace._plan`` does.
    """

    __slots__ = ("blob", "program", "n_events", "scalar_count",
                 "vector_count", "total_flops", "kinds", "columns",
                 "fallback_bytes", "_events", "_plan")

    def __init__(self, blob: bytes, program: Program) -> None:
        _parse_into(self, blob, program)

    # -- pickling: ship the blob, re-derive the views ------------------
    def __getstate__(self):
        return (bytes(self.blob), self.program)

    def __setstate__(self, state):
        blob, program = state
        _parse_into(self, blob, program)

    # -- DynamicTrace-compatible surface -------------------------------
    def __len__(self) -> int:
        return self.n_events

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def vector_events(self) -> Iterator[VectorEvent]:
        return (e for e in self.events if isinstance(e, VectorEvent))

    @property
    def events(self) -> list:
        """Materialized event objects (built on first access, cached)."""
        events = self._events
        if events is None:
            events = self._events = _build_events(self)
        return events

    @property
    def fallback(self) -> dict:
        """``{event index: event}`` of the events kept out of the
        columns (unpickled per access; empty for most traces)."""
        return (pickle.loads(self.fallback_bytes) if self.fallback_bytes
                else {})

    @property
    def nbytes(self) -> int:
        """Size of the packed blob in bytes."""
        return len(self.blob)

    def to_trace(self) -> DynamicTrace:
        """Rebuild a plain :class:`DynamicTrace` with equal contents."""
        return DynamicTrace(events=list(self.events),
                            scalar_count=self.scalar_count,
                            vector_count=self.vector_count,
                            total_flops=self.total_flops)


def _build_events(packed: PackedTrace) -> list:
    cols = packed.columns
    kinds = packed.kinds
    instructions = packed.program.instructions
    fallback = packed.fallback
    tags = cols["tags"].tolist()
    s_kind = cols["s_kind"].tolist()
    s_addr = cols["s_addr"].tolist()
    s_nbytes = cols["s_nbytes"].tolist()
    w_vl = cols["w_vl"].tolist()
    w_sew = cols["w_sew"].tolist()
    w_lmul = cols["w_lmul"].tolist()
    v_instr = cols["v_instr"].tolist()
    v_vl = cols["v_vl"].tolist()
    v_sew = cols["v_sew"].tolist()
    v_lmul = cols["v_lmul"].tolist()
    v_slide = cols["v_slide"].tolist()
    v_flags = cols["v_flags"].tolist()
    m_base = cols["m_base"].tolist()
    m_stride = cols["m_stride"].tolist()
    m_count = cols["m_count"].tolist()
    m_ew = cols["m_ew"].tolist()
    m_pattern = cols["m_pattern"].tolist()

    events: list = []
    append = events.append
    si = wi = vi = 0
    for index, tag in enumerate(tags):
        if tag == TAG_SCALAR:
            addr = s_addr[si]
            append(ScalarEvent(kinds[s_kind[si]],
                               None if addr < 0 else addr, s_nbytes[si]))
            si += 1
        elif tag == TAG_VSETVL:
            append(VsetvlEvent(w_vl[wi], w_sew[wi], w_lmul[wi]))
            wi += 1
        elif tag == TAG_VECTOR:
            flags = v_flags[vi]
            mem = None
            if flags & 1:
                mem = MemAccess(base=m_base[vi], stride=m_stride[vi],
                                count=m_count[vi], ew_bytes=m_ew[vi],
                                pattern=PATTERNS[m_pattern[vi]],
                                is_store=bool(flags & 2))
            append(VectorEvent(instructions[v_instr[vi]], v_vl[vi],
                               v_sew[vi], v_lmul[vi], mem, v_slide[vi]))
            vi += 1
        else:
            append(fallback[index])
    return events
