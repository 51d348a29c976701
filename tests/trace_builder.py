"""Hand-built traces for tests.

:func:`build_trace` writes the trace columns of a list of event objects
directly and returns the :class:`~repro.functional.trace_pack.PackedTrace`
over them, so a test can express records no executor run produces (a
vector record whose configuration no ``vsetvli`` set, a memory access
on any instruction).  Scalar kinds take trace codes in first-use order
and a vector event links to the *last* position of its instruction in
the program, as in a capture.  A scalar event without an address keeps
no ``nbytes`` (the columns hold a size only beside an address).
"""

from __future__ import annotations

import numpy as np

from repro.functional.trace import ScalarEvent, VectorEvent, VsetvlEvent
from repro.functional.trace_pack import (PATTERN_CODE, TAG_SCALAR,
                                         TAG_VECTOR, TAG_VSETVL, PackedTrace)

#: Every trace column and its dtype.
_DTYPES = {
    "tags": np.uint8, "s_kind": np.uint16, "s_addr": np.int64,
    "s_nbytes": np.int64, "w_vl": np.int64, "w_sew": np.uint8,
    "w_lmul": np.uint8, "v_instr": np.int32, "v_vl": np.int64,
    "v_sew": np.uint8, "v_lmul": np.uint8, "v_slide": np.int64,
    "v_flags": np.uint8, "m_base": np.uint64, "m_stride": np.int64,
    "m_count": np.int64, "m_ew": np.uint8, "m_pattern": np.uint8,
}


def build_trace(program, events) -> PackedTrace:
    """The packed trace of ``events``, whose vector instructions are
    instructions of ``program``."""
    rows = {name: [] for name in _DTYPES}
    kinds: list[str] = []
    index = {id(instr): i for i, instr in enumerate(program.instructions)}
    total_flops = 0.0
    for event in events:
        cls = event.__class__
        if cls is ScalarEvent:
            if event.kind not in kinds:
                kinds.append(event.kind)
            rows["tags"].append(TAG_SCALAR)
            rows["s_kind"].append(kinds.index(event.kind))
            has_addr = event.addr is not None
            rows["s_addr"].append(event.addr if has_addr else -1)
            rows["s_nbytes"].append(event.nbytes if has_addr else 0)
        elif cls is VsetvlEvent:
            rows["tags"].append(TAG_VSETVL)
            rows["w_vl"].append(event.vl)
            rows["w_sew"].append(event.sew)
            rows["w_lmul"].append(event.lmul)
        elif cls is VectorEvent:
            mem = event.mem
            rows["tags"].append(TAG_VECTOR)
            rows["v_instr"].append(index[id(event.instr)])
            rows["v_vl"].append(event.vl)
            rows["v_sew"].append(event.sew)
            rows["v_lmul"].append(event.lmul)
            rows["v_slide"].append(event.slide_amount or 0)
            if mem is None:
                fields = (0,) * 6
            else:
                fields = (3 if mem.is_store else 1, mem.base, mem.stride,
                          mem.count, mem.ew_bytes, PATTERN_CODE[mem.pattern])
            for name, value in zip(("v_flags", "m_base", "m_stride",
                                    "m_count", "m_ew", "m_pattern"), fields):
                rows[name].append(value)
            total_flops += event.instr.spec.flops * event.vl
        else:
            raise TypeError(f"not a trace event: {event!r}")
    columns = {name: np.array(values, _DTYPES[name])
               for name, values in rows.items()}
    return PackedTrace.from_columns(program, columns, kinds, total_flops)
