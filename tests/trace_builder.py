"""Hand-built traces for tests.

:func:`build_trace` appends event objects to the executor's column
buffers (:class:`~repro.functional.trace_pack.TraceBuffers`) the way
:meth:`~repro.functional.executor.Executor.run` writes retired
instructions, and returns the finished
:class:`~repro.functional.trace_pack.PackedTrace`.  A vector event
links to the *last* position of its instruction in the program, as the
executor's ``trace_index`` does.  A scalar event without an address
keeps no ``nbytes`` (the columns hold a size only beside an address).
"""

from __future__ import annotations

from repro.functional.trace import (SCALAR_KINDS, ScalarEvent, VectorEvent,
                                    VsetvlEvent)
from repro.functional.trace_pack import (PATTERN_CODE, TAG_SCALAR,
                                         TAG_VECTOR, TAG_VSETVL, PackedTrace,
                                         TraceBuffers)

_KIND_CODE = {kind: code for code, kind in enumerate(SCALAR_KINDS)}


def build_trace(program, events) -> PackedTrace:
    """The packed trace of ``events``, whose vector instructions are
    instructions of ``program``."""
    buf = TraceBuffers()
    index = {id(instr): i for i, instr in enumerate(program.instructions)}
    total_flops = 0.0
    for event in events:
        cls = event.__class__
        if cls is ScalarEvent:
            code = _KIND_CODE[event.kind]
            local = buf.kind_code[code]
            if local < 0:
                local = buf.new_kind(code)
            if event.addr is not None:
                buf.s_mem_row.append(len(buf.s_kind))
                buf.s_addr.append(event.addr)
                buf.s_nbytes.append(event.nbytes)
            buf.tags.append(TAG_SCALAR)
            buf.s_kind.append(local)
        elif cls is VsetvlEvent:
            buf.tags.append(TAG_VSETVL)
            buf.w_vl.append(event.vl)
            buf.w_sew.append(event.sew)
            buf.w_lmul.append(event.lmul)
        elif cls is VectorEvent:
            row = len(buf.v_instr)
            if event.slide_amount:
                buf.slide_row.append(row)
                buf.v_slide.append(event.slide_amount)
            mem = event.mem
            if mem is not None:
                buf.mem_row.append(row)
                buf.v_flags.append(3 if mem.is_store else 1)
                buf.m_base.append(mem.base)
                buf.m_stride.append(mem.stride)
                buf.m_count.append(mem.count)
                buf.m_ew.append(mem.ew_bytes)
                buf.m_pattern.append(PATTERN_CODE[mem.pattern])
            buf.tags.append(TAG_VECTOR)
            buf.v_instr.append(index[id(event.instr)])
            buf.v_vl.append(event.vl)
            buf.v_sew.append(event.sew)
            buf.v_lmul.append(event.lmul)
            total_flops += event.instr.spec.flops * event.vl
        else:
            raise TypeError(f"not a trace event: {event!r}")
    return buf.finish(program, total_flops)
