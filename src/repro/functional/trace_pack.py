"""Columnar (struct-of-arrays) traces: the v7 layout, capture to disk.

A dynamic trace is one record per retired instruction.  Held as Python
objects (:mod:`repro.functional.trace`), it costs one heap object per
record — to build, to pickle and to unpickle — which dominates capture
and warm-path latency once traces reach 10^5 records.  This module
keeps the records in per-kind numpy columns ("struct of arrays"):

* a ``tags`` byte per event (scalar / vsetvl / vector) keeps the
  original interleaving, so the stream order — which the timing engine
  replays sequentially — survives exactly;
* per-kind columns (opcode ids, operand program indices, ``vl`` /
  ``sew`` / ``lmul``, memory base/stride/count, element widths) hold the
  payload as raw little-endian array bytes.  Every record the executor
  can retire has a row: a vector memory base is any 64-bit register
  value, so ``m_base`` is unsigned;
* a small pickled header carries the four row counts, from which both
  sides compute each column's ``(dtype, offset, count)`` slice of the
  blob, so readers materialize views with :func:`numpy.frombuffer` —
  zero-copy over the envelope's decompressed payload bytes.

Vector events reference their :class:`~repro.isa.instructions
.Instruction` by *index into the program's instruction tuple* — the
program ships alongside the blob in the envelope payload, so unpacking
re-links events to the very instruction objects the replay decode
caches key on.

The functional executor writes these columns as it retires instructions,
through the typed append buffers of :class:`TraceBuffers`, and a
capture is a :class:`PackedTrace` over them; its blob is serialized by
:func:`pack_trace` the first time something needs it (pickling,
``nbytes``, the disk tier).

:class:`PackedTrace` is also the lazy reader of a disk blob: aggregate
counters and column views are available without materializing a single
event object — the replay plan (:mod:`repro.timing.replay_plan`)
compiles straight from the views — and :attr:`PackedTrace.events`
builds the plain event list on first use for consumers that genuinely
need objects (the reference replay loop, golden checks).
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Iterator

import numpy as np

from ..isa.instructions import MemPattern
from ..isa.program import Program
from .trace import (SCALAR_KINDS, MemAccess, ScalarEvent, VectorEvent,
                    VsetvlEvent)

__all__ = ["PACK_VERSION", "PackedTrace", "TraceBuffers", "pack_trace",
           "unpack_trace"]

#: Version of the column layout inside the blob (independent of the
#: envelope's ``DISK_FORMAT_VERSION``, which gates the file as a whole).
#: 2: ``m_base`` is unsigned, so every record has a row.
PACK_VERSION = 2

#: Leading magic of every packed-trace blob.
MAGIC = b"RVT6"

#: Event tags (one byte per event, preserving stream order).
TAG_SCALAR, TAG_VSETVL, TAG_VECTOR = 0, 1, 2

#: Fixed pattern vocabulary: index in this tuple is the on-disk code.
PATTERNS = (MemPattern.NONE, MemPattern.UNIT, MemPattern.STRIDED,
            MemPattern.INDEXED, MemPattern.MASK)
PATTERN_CODE = {p: i for i, p in enumerate(PATTERNS)}

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
#: zlib pass collapses.  ``s_addr`` stays signed for its ``-1`` "no
#: address" sentinel: scalar addresses are checked against the memory
#: size before they retire.
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
    ("m_base", "u8", "v", True),
    ("m_stride", "i8", "v", True),
    ("m_count", "i8", "v", True),
    ("m_ew", "u1", "v", False),
    ("m_pattern", "u1", "v", False),
)


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
    64-bit boundaries (and gives an unsigned column the bytes of its
    signed twin)."""
    out = arr.copy()
    out[1:] -= arr[:-1]
    return out


def _delta_decode(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr, dtype=arr.dtype)


class TraceBuffers:
    """Typed append buffers the functional executor writes a trace into.

    Dense buffers hold one value per row in their column's dtype
    (``bytearray`` for ``u1``, :class:`array.array` otherwise), so
    :meth:`finish` views them with :func:`numpy.frombuffer`.  Payload
    most rows lack is sparse: the memory fields and flags of the vector
    rows that access memory (rows in ``mem_row``), the amount of slide
    rows (``slide_row``) and the address and size of scalar loads and
    stores (``s_mem_row``) are scattered into zero-filled columns (``-1``
    for a missing address).  ``s_kind`` holds trace codes into
    ``kinds``, grown in first-use order; ``kind_code`` maps a
    :data:`~repro.functional.trace.SCALAR_KINDS` code to its trace code
    (``-1``: unused so far).
    """

    __slots__ = ("tags", "s_kind", "s_mem_row", "s_addr", "s_nbytes",
                 "kinds", "kind_code", "w_vl", "w_sew", "w_lmul",
                 "v_instr", "v_vl", "v_sew", "v_lmul", "slide_row",
                 "v_slide", "mem_row", "v_flags", "m_base", "m_stride",
                 "m_count", "m_ew", "m_pattern")

    def __init__(self) -> None:
        self.tags = bytearray()
        self.s_kind = bytearray()  # widened to the u2 column by finish()
        self.s_mem_row = array("q")
        self.s_addr = array("q")
        self.s_nbytes = array("q")
        self.kinds: list[str] = []
        self.kind_code = [-1] * len(SCALAR_KINDS)
        self.w_vl = array("q")
        self.w_sew = bytearray()
        self.w_lmul = bytearray()
        self.v_instr = array("i")
        self.v_vl = array("q")
        self.v_sew = bytearray()
        self.v_lmul = bytearray()
        self.slide_row = array("q")
        self.v_slide = array("q")
        self.mem_row = array("q")
        self.v_flags = bytearray()
        self.m_base = array("Q")
        self.m_stride = array("q")
        self.m_count = array("q")
        self.m_ew = bytearray()
        self.m_pattern = bytearray()

    def new_kind(self, code: int) -> int:
        """Trace code of ``SCALAR_KINDS[code]`` on its first use."""
        local = self.kind_code[code] = len(self.kinds)
        self.kinds.append(SCALAR_KINDS[code])
        return local

    def finish(self, program: Program, total_flops: float) -> "PackedTrace":
        """The :class:`PackedTrace` of the buffered records (the
        buffers stay exported to its columns)."""
        counts = {"t": len(self.tags), "s": len(self.s_kind),
                  "w": len(self.w_vl), "v": len(self.v_instr)}
        columns: dict[str, np.ndarray] = {}
        row_index: dict[str, np.ndarray] = {}
        for name, dtype, group, _ in _COLUMNS:
            rows = _SPARSE_ROWS.get(name)
            if rows is None:
                column = np.frombuffer(getattr(self, name),
                                       np.uint8 if name == "s_kind" else dtype)
                if name == "s_kind":
                    column = column.astype(dtype)
            else:
                column = np.zeros(counts[group], dtype)
                if name == "s_addr":
                    column.fill(-1)
                index = row_index.get(rows)
                if index is None:
                    index = row_index[rows] = np.frombuffer(
                        getattr(self, rows), np.int64)
                if index.size:
                    column[index] = np.frombuffer(getattr(self, name), dtype)
            columns[name] = column
        packed = PackedTrace.__new__(PackedTrace)
        _fill(packed, None, program, columns, tuple(self.kinds),
              counts["t"] - counts["v"], counts["v"], total_flops)
        return packed


#: Sparse :class:`TraceBuffers` columns and the buffer of their rows.
_SPARSE_ROWS = {"s_addr": "s_mem_row", "s_nbytes": "s_mem_row",
                "v_slide": "slide_row", "v_flags": "mem_row",
                "m_base": "mem_row", "m_stride": "mem_row",
                "m_count": "mem_row", "m_ew": "mem_row",
                "m_pattern": "mem_row"}


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack_trace(trace: "PackedTrace") -> bytes:
    """The self-describing blob of ``trace``'s (not delta-coded)
    columns: magic, header length, pickled header, then each column
    8-aligned, the wide ones delta-coded."""
    cols = trace.columns
    counts = {"t": len(cols["tags"]), "s": len(cols["s_kind"]),
              "w": len(cols["w_vl"]), "v": len(cols["v_instr"])}
    table, _ = _layout(counts)
    header = {
        "pack": PACK_VERSION,
        "counts": (counts["t"], counts["s"], counts["w"], counts["v"]),
        "scalar_count": trace.scalar_count,
        "vector_count": trace.vector_count,
        "total_flops": trace.total_flops,
        "kinds": trace.kinds,
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
    ``ValueError`` for anything that is not a well-formed blob of this
    layout version (the disk tier treats that as a corrupt entry and
    purges it).
    """
    return PackedTrace(blob, program)


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
    _fill(packed, blob, program, columns, header["kinds"],
          int(header["scalar_count"]), int(header["vector_count"]),
          header["total_flops"])


def _fill(packed: "PackedTrace", blob, program: Program, columns: dict,
          kinds: tuple, scalar_count: int, vector_count: int,
          total_flops: float) -> None:
    """Set every slot of ``packed`` (``blob`` may be ``None``: built on
    first use)."""
    packed._blob = blob
    packed.program = program
    packed.n_events = len(columns["tags"])
    packed.scalar_count = scalar_count
    packed.vector_count = vector_count
    packed.total_flops = total_flops
    packed.kinds = kinds
    packed.columns = columns
    packed._events = None
    packed._plan = None


class PackedTrace:
    """Lazy columnar view of a trace: a capture or a packed blob.

    Offers aggregate counters, ``len``, iteration and ``vector_events``
    while keeping the payload as flat numpy columns — the executor's
    buffers, or views over the blob bytes — until someone genuinely
    needs event objects.  ``_plan`` caches the timing engine's compiled
    replay plan, so the decode survives across the many machine models
    one capture is replayed against.
    """

    __slots__ = ("_blob", "program", "n_events", "scalar_count",
                 "vector_count", "total_flops", "kinds", "columns",
                 "_events", "_plan")

    def __init__(self, blob: bytes, program: Program) -> None:
        _parse_into(self, blob, program)

    # -- pickling: ship the blob, re-derive the views ------------------
    def __getstate__(self):
        return (bytes(self.blob), self.program)

    def __setstate__(self, state):
        blob, program = state
        _parse_into(self, blob, program)

    # -- event stream ---------------------------------------------------
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
    def blob(self) -> bytes:
        """The packed blob (serialized from the columns on first use)."""
        blob = self._blob
        if blob is None:
            blob = self._blob = pack_trace(self)
        return blob

    @property
    def nbytes(self) -> int:
        """Size of the packed blob in bytes."""
        return len(self.blob)


def _build_events(packed: PackedTrace) -> list:
    cols = packed.columns
    kinds = packed.kinds
    instructions = packed.program.instructions
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
    for tag in tags:
        if tag == TAG_SCALAR:
            addr = s_addr[si]
            append(ScalarEvent(kinds[s_kind[si]],
                               None if addr < 0 else addr, s_nbytes[si]))
            si += 1
        elif tag == TAG_VSETVL:
            append(VsetvlEvent(w_vl[wi], w_sew[wi], w_lmul[wi]))
            wi += 1
        else:
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
    return events
