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

The functional executor writes what execution decides into the typed
append buffers of :class:`TraceBuffers` as it retires instructions;
:meth:`TraceBuffers.finish` derives the other columns from them and
the program, and a capture is a :class:`PackedTrace` over the result.
Its blob is serialized by :func:`pack_trace` the first time something
needs it (pickling, ``nbytes``, the disk tier).

:class:`PackedTrace` is also the lazy reader of a disk blob: aggregate
counters and column views are available without materializing a single
event object — the replay plan (:mod:`repro.timing.replay_plan`)
compiles straight from the views — and :attr:`PackedTrace.events`
builds the plain event list on first use for consumers that genuinely
need objects (the reference replay loop, golden checks).

A blob splits at a column boundary into its *head* (magic, header, the
event tags and the scalar columns) and its *vector section* (the
``w_*``/``v_*``/``m_*`` columns); :func:`split_blob` cuts it and the two
parts concatenated are the blob.  The disk tier stores the parts as two
zlib streams, and :func:`unpack_sections` wraps a head plus a still
compressed vector section: counters and the scalar columns
(:meth:`PackedTrace.column`) are there at once, and the vector section
is inflated on the first read of :attr:`~PackedTrace.columns`,
:attr:`~PackedTrace.events` or :attr:`~PackedTrace.blob` — a replay
from a stored plan reads none of them.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from array import array
from typing import Iterator

import numpy as np

from ..isa.instructions import MemPattern
from ..isa.program import Program
from .trace import (SCALAR_KINDS, MemAccess, ScalarEvent, VectorEvent,
                    VsetvlEvent)

__all__ = ["PACK_VERSION", "PackedTrace", "TraceBuffers", "pack_trace",
           "split_blob", "unpack_sections", "unpack_trace"]

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


#: First column of the vector section: the head holds every column
#: before it (tags and scalar columns), the vector section the rest.
_VECTOR_FIRST = "w_vl"


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

    The buffers hold only what execution decides, each value in its
    column's dtype (``bytearray`` for ``u1``, :class:`array.array`
    otherwise): the event ``tags``, scalar kind codes (trace codes into
    ``kinds``, grown in first-use order; ``kind_code`` maps a
    :data:`~repro.functional.trace.SCALAR_KINDS` code to its trace code,
    ``-1``: unused so far), the address and size of each scalar load or
    store, the ``vsetvli`` results, the ``v_instr`` of each vector row,
    slide amounts and the base, stride, count and element bytes of each
    vector memory access.  Index 0 of ``w_vl``/``w_sew``/``w_lmul`` is
    the run's start vtype, the configuration of the vector rows before
    the first ``vsetvli``; the ``w_*`` columns start at index 1.
    :meth:`finish` derives the rest of the columns.
    """

    __slots__ = ("tags", "s_kind", "s_addr", "s_nbytes", "kinds",
                 "kind_code", "w_vl", "w_sew", "w_lmul", "v_instr",
                 "v_slide", "m_base", "m_stride", "m_count", "m_ew")

    def __init__(self, vl: int, sew: int, lmul: int) -> None:
        self.tags = bytearray()
        self.s_kind = bytearray()  # widened to the u2 column by finish()
        self.s_addr = array("q")
        self.s_nbytes = array("q")
        self.kinds: list[str] = []
        self.kind_code = [-1] * len(SCALAR_KINDS)
        self.w_vl = array("q", (vl,))
        self.w_sew = bytearray((sew,))
        self.w_lmul = bytearray((lmul,))
        self.v_instr = array("i")
        self.v_slide = array("q")
        self.m_base = array("Q")
        self.m_stride = array("q")
        self.m_count = array("q")
        self.m_ew = bytearray()

    def new_kind(self, code: int) -> int:
        """Trace code of ``SCALAR_KINDS[code]`` on its first use."""
        local = self.kind_code[code] = len(self.kinds)
        self.kinds.append(SCALAR_KINDS[code])
        return local

    def finish(self, program: Program, total_flops: float,
               row_table: np.ndarray) -> "PackedTrace":
        """The :class:`PackedTrace` of the buffered records (the
        buffers stay exported to its columns).

        Derives, in one vectorized pass, the rows of the scalar
        accesses (the scalar rows whose kind is a load or store), each
        vector row's ``(vl, SEW, LMUL)`` (the latest ``vsetvli``
        before it, or the start vtype) and, from ``row_table``
        (:func:`repro.functional.plan.row_table` of ``program``), its
        memory flags and pattern code and the rows of the memory
        accesses and slide amounts.  Rows without a scalar access, a
        slide or a vector memory access hold zeros (``-1`` for a
        missing address).
        """
        tags = np.frombuffer(self.tags, np.uint8)
        s_kind = np.frombuffer(self.s_kind, np.uint8)
        s_addr = np.full(len(s_kind), -1, np.int64)
        s_nbytes = np.zeros(len(s_kind), np.int64)
        if self.s_addr:
            access = np.frombuffer(
                bytes(kind in _ACCESS_KINDS for kind in self.kinds), np.bool_)
            rows = access[s_kind].nonzero()[0]
            s_addr[rows] = np.frombuffer(self.s_addr, np.int64)
            s_nbytes[rows] = np.frombuffer(self.s_nbytes, np.int64)
        w_vl = np.frombuffer(self.w_vl, np.int64)
        w_sew = np.frombuffer(self.w_sew, np.uint8)
        w_lmul = np.frombuffer(self.w_lmul, np.uint8)
        v_instr = np.frombuffer(self.v_instr, np.int32)
        n_vector = len(v_instr)
        if n_vector and len(w_vl) > 1:  # vsetvlis before each vector row
            config = (tags == TAG_VSETVL).cumsum()[tags == TAG_VECTOR]
        else:
            config = np.zeros(n_vector, np.intp)
        v_flags, m_pattern, slides = row_table[:, v_instr]
        v_slide = np.zeros(n_vector, np.int64)
        if self.v_slide:
            v_slide[slides.nonzero()[0]] = np.frombuffer(
                self.v_slide, np.int64)
        m_base = np.zeros(n_vector, np.uint64)
        m_stride = np.zeros(n_vector, np.int64)
        m_count = np.zeros(n_vector, np.int64)
        m_ew = np.zeros(n_vector, np.uint8)
        if self.m_base:
            rows = v_flags.nonzero()[0]
            m_base[rows] = np.frombuffer(self.m_base, np.uint64)
            m_stride[rows] = np.frombuffer(self.m_stride, np.int64)
            m_count[rows] = np.frombuffer(self.m_count, np.int64)
            m_ew[rows] = np.frombuffer(self.m_ew, np.uint8)
        return PackedTrace.from_columns(program, {
            "tags": tags, "s_kind": s_kind.astype(np.uint16),
            "s_addr": s_addr, "s_nbytes": s_nbytes,
            "w_vl": w_vl[1:], "w_sew": w_sew[1:], "w_lmul": w_lmul[1:],
            "v_instr": v_instr, "v_vl": w_vl[config],
            "v_sew": w_sew[config], "v_lmul": w_lmul[config],
            "v_slide": v_slide, "v_flags": v_flags, "m_base": m_base,
            "m_stride": m_stride, "m_count": m_count, "m_ew": m_ew,
            "m_pattern": m_pattern}, self.kinds, total_flops)


#: Scalar kinds with an address: loads and stores.
_ACCESS_KINDS = ("load", "store")


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


def split_blob(blob) -> tuple[bytes, bytes]:
    """``(head, vector section)`` of a blob, cut where its first vector
    column starts; ``head + vector section`` is the blob."""
    _, region, table, _ = _read_header(blob)
    cut = region + table[_VECTOR_FIRST][1]
    return bytes(blob[:cut]), bytes(blob[cut:])


def unpack_sections(head: bytes, vector_z: bytes,
                    program: Program) -> "PackedTrace":
    """A :class:`PackedTrace` over a blob's head and its zlib-compressed
    vector section (:func:`split_blob`), which stays compressed until
    something reads the vector columns, the events or the blob.

    Raises ``ValueError`` when ``head`` is not the head of a blob of
    this layout version.
    """
    header, region, table, _ = _read_header(head)
    if region + table[_VECTOR_FIRST][1] != len(head):
        raise ValueError("packed-trace head does not end at the vector "
                         "columns")
    packed = PackedTrace.__new__(PackedTrace)
    columns = _columns_of(head, region, table, head=True)
    _fill(packed, None, program, columns, header)
    packed._vector = (head, vector_z)
    return packed


def _read_header(blob) -> tuple[dict, int, dict, int]:
    """``(header, column region offset, column table, column bytes)`` of
    a blob whose header is whole (the columns may be missing)."""
    if bytes(blob[:4]) != MAGIC:
        raise ValueError("not a packed-trace blob (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + header_len > len(blob):
        raise ValueError("packed-trace header overruns the blob")
    header = pickle.loads(bytes(blob[8:8 + header_len]))
    if not isinstance(header, dict) or header.get("pack") != PACK_VERSION:
        raise ValueError("unsupported packed-trace layout version")
    raw_counts = header.get("counts")
    if (not isinstance(raw_counts, tuple) or len(raw_counts) != 4
            or any((not isinstance(c, int)) or c < 0 for c in raw_counts)):
        raise ValueError("packed-trace header has malformed counts")
    table, total = _layout(dict(zip("tswv", raw_counts)))
    return header, _align8(8 + header_len), table, total


def _columns_of(blob, region: int, table: dict,
                head: bool = False) -> dict:
    """Column views over ``blob`` (only the head's columns when
    ``head``), delta-coded columns decoded."""
    columns: dict[str, np.ndarray] = {}
    for name, _, _, delta in _COLUMNS:
        if head and name == _VECTOR_FIRST:
            break
        dt, off, count = table[name]
        arr = np.frombuffer(blob, dtype=dt, count=count,
                            offset=region + off)
        if delta and count > 1:
            arr = _delta_decode(arr)
        columns[name] = arr
    return columns


def _parse_into(packed: "PackedTrace", blob, program: Program) -> None:
    header, region, table, total = _read_header(blob)
    if region + total > len(blob):
        raise ValueError("packed-trace columns overrun the blob")
    _fill(packed, blob, program, _columns_of(blob, region, table), header)


def _fill(packed: "PackedTrace", blob, program: Program, columns: dict,
          header: dict) -> None:
    """Set every slot of ``packed`` from its columns and blob header
    (``blob`` may be ``None``: built on first use)."""
    packed._blob = blob
    packed._vector = None
    packed.program = program
    packed.n_events = len(columns["tags"])
    packed.scalar_count = int(header["scalar_count"])
    packed.vector_count = int(header["vector_count"])
    packed.total_flops = header["total_flops"]
    packed.kinds = header["kinds"]
    packed._columns = columns
    packed._events = None
    packed._plan = None


class PackedTrace:
    """Lazy columnar view of a trace: a capture or a packed blob.

    Offers aggregate counters, ``len``, iteration and ``vector_events``
    while keeping the payload as flat numpy columns — the executor's
    buffers, or views over the blob bytes — until someone genuinely
    needs event objects.  ``_plan`` caches the timing engine's compiled
    replay plan, so the decode survives across the many machine models
    one capture is replayed against.  ``_vector`` holds ``(head,
    compressed vector section)`` of a trace read from the disk tier
    until the vector columns are first needed (:meth:`column` reads a
    head column without them).
    """

    __slots__ = ("_blob", "_vector", "program", "n_events", "scalar_count",
                 "vector_count", "total_flops", "kinds", "_columns",
                 "_events", "_plan")

    def __init__(self, blob: bytes, program: Program) -> None:
        _parse_into(self, blob, program)

    @classmethod
    def from_columns(cls, program: Program, columns: dict, kinds,
                     total_flops: float) -> "PackedTrace":
        """The trace over ``columns`` (every column of the layout, by
        name, not delta-coded) whose scalar rows have the kinds
        ``kinds``; its blob is packed on first use."""
        packed = cls.__new__(cls)
        n_vector = len(columns["v_instr"])
        _fill(packed, None, program, columns, {
            "kinds": tuple(kinds),
            "scalar_count": len(columns["tags"]) - n_vector,
            "vector_count": n_vector, "total_flops": total_flops})
        return packed

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
    def columns(self) -> dict:
        """Every column by name (inflates a compressed vector section)."""
        if self._vector is not None:
            self._inflate()
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """One column; a head column never inflates the vector section."""
        column = self._columns.get(name)
        return column if column is not None else self.columns[name]

    def _inflate(self) -> None:
        """Decompress the vector section and view every column over the
        whole blob; the compiled plan stays."""
        head, vector_z = self._vector
        plan = self._plan
        _parse_into(self, head + zlib.decompress(vector_z), self.program)
        self._plan = plan

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
        if self._vector is not None:
            self._inflate()
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
