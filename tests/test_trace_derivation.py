"""Trace columns the capture derives rather than records.

``Executor.run`` appends only what execution decides; ``TraceBuffers
.finish`` places those values on their rows and derives each vector
row's ``(vl, SEW, LMUL)``, memory flags and pattern code.  Each case
here checks the derived rows against what the instructions must
produce and pins the SHA-256 of the capture blob, recorded with the
executor that appended every row index and vtype row as it retired.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.functional import Executor, FunctionalMemory
from repro.functional.trace import ScalarEvent, VectorEvent
from repro.isa import Assembler
from repro.isa.instructions import MemPattern
from repro.isa.vtype import LMUL, SEW, VType

BLOB_DIGESTS = {
    "start_vtype":
        "c3ca2228d19c9e00cc9a6bb3ee6ed95529fdd353c4fafe88ad80865b62f73489",
    "vl_zero":
        "04e1d930b61ecd8803a4364b3844aca316cac83c4e149beb28380490925d54c9",
    "kinds_after_branch":
        "d7e03810811b3f01d777988ed8283864d4f41117943fd2fbbf0e3dd494d733be",
}


def _digest(trace) -> str:
    return hashlib.sha256(trace.blob).hexdigest()


def _start_vtype():
    """Vector ops retire under a vtype set on the state (e32, m2,
    vl = 5) before the first ``vsetvli``, which switches to e64/m1."""
    a = Assembler("start_vtype")
    a.li("x10", 1024)
    a.li("x1", 3)
    a.vle32_v("v4", "x10")
    a.vfadd_vv("v8", "v4", "v4")
    a.vse32_v("v8", "x10")
    a.vsetvli("x2", "x1", sew=64, lmul=1)
    a.vle64_v("v2", "x10")
    a.vfmul_vv("v3", "v2", "v2")
    a.halt()
    mem = FunctionalMemory(1 << 16)
    mem.write_array(1024, np.arange(16, dtype=np.float32))
    ex = Executor(1024, mem=mem)
    ex.state.vtype = VType(sew=SEW(32), lmul=LMUL(2))
    ex.state.vl = 5
    return ex.run(a.build()).trace


def _vl_zero():
    """At ``vl = 0`` a unit-stride load, a masked store and both slide
    kinds still have their memory and slide rows; a ``vrgather`` beside
    them has neither."""
    a = Assembler("vl_zero")
    a.li("x10", 2048)
    a.li("x3", 2)
    a.vsetvli("x2", "x0", sew=64, lmul=1)  # vl = VLMAX = 16
    a.vle64_v("v1", "x10")
    a.vsetvli("x0", "x0", sew=64, lmul=1)  # rd = rs1 = x0 keeps vl
    a.vsetvli("x2", "x4", sew=64, lmul=1)  # x4 = 0: vl = 0
    a.vle64_v("v2", "x10")
    a.vse64_v("v1", "x10", masked=True)
    a.vrgather_vv("v5", "v1", "v6")
    a.vfslide1down_vf("v3", "v1", "f1")
    a.vslidedown_vx("v4", "v1", "x3")
    a.vsetvli("x2", "x3", sew=64, lmul=1)  # vl = 2
    a.vrgather_vv("v7", "v1", "v6")
    a.vslidedown_vx("v4", "v1", "x3")
    a.vse64_v("v4", "x10", masked=True)
    a.halt()
    mem = FunctionalMemory(1 << 16)
    mem.write_array(2048, np.arange(16) * 0.5)
    ex = Executor(1024, mem=mem)
    ex.state.v.write_mask(0, np.array([True, False] * 8))
    return ex.run(a.build()).trace


def _kinds_after_branch():
    """Scalar loads and stores whose kinds first appear after a branch,
    so the trace's kind codes are not :data:`SCALAR_KINDS` order."""
    a = Assembler("kinds_after_branch")
    a.li("x10", 512)
    a.li("x3", 2)
    a.label("loop")
    a.addi("x3", "x3", -1)
    a.beqz("x3", "done")
    a.fld("f1", "x10", 0)
    a.sd("x3", "x10", 16)
    a.addi("x10", "x10", 8)
    a.j("loop")
    a.label("done")
    a.sd("x10", "x10", 0)
    a.halt()
    mem = FunctionalMemory(1 << 16)
    mem.write_array(512, np.arange(8) * 1.5)
    return Executor(1024, mem=mem).run(a.build()).trace


def _vector_rows(trace) -> list:
    return [(e.instr.mnemonic, e.vl, e.sew, e.lmul) for e in trace.events
            if isinstance(e, VectorEvent)]


def test_rows_before_the_first_vsetvli_take_the_start_vtype():
    trace = _start_vtype()
    assert _vector_rows(trace) == [
        ("vle32_v", 5, 32, 2), ("vfadd_vv", 5, 32, 2),
        ("vse32_v", 5, 32, 2), ("vle64_v", 3, 64, 1),
        ("vfmul_vv", 3, 64, 1)]
    mems = [e.mem for e in trace.vector_events()]
    assert [(m.base, m.count, m.ew_bytes, m.is_store)
            for m in mems if m is not None] == [
        (1024, 5, 4, False), (1024, 5, 4, True), (1024, 3, 8, False)]
    assert trace.total_flops == 5 + 3
    assert _digest(trace) == BLOB_DIGESTS["start_vtype"]


def test_vl_zero_ops_keep_their_memory_and_slide_rows():
    trace = _vl_zero()
    rows = [(e.instr.mnemonic, e.vl, e.slide_amount,
             None if e.mem is None else
             (e.mem.base, e.mem.count, e.mem.pattern, e.mem.is_store))
            for e in trace.vector_events()]
    unit = MemPattern.UNIT
    assert rows == [
        ("vle64_v", 16, 0, (2048, 16, unit, False)),
        ("vle64_v", 0, 0, (2048, 0, unit, False)),
        ("vse64_v", 0, 0, (2048, 0, unit, True)),
        ("vrgather_vv", 0, 0, None),
        ("vfslide1down_vf", 0, 1, None),
        ("vslidedown_vx", 0, 2, None),
        ("vrgather_vv", 2, 0, None),
        ("vslidedown_vx", 2, 2, None),
        ("vse64_v", 2, 0, (2048, 2, unit, True)),
    ]
    assert trace.columns["v_flags"].tolist() == [1, 1, 3, 0, 0, 0, 0, 0, 3]
    assert _digest(trace) == BLOB_DIGESTS["vl_zero"]


def test_scalar_accesses_found_by_their_trace_kind_codes():
    trace = _kinds_after_branch()
    assert trace.kinds == ("alu", "branch", "load", "store",
                           "branch_taken")
    accesses = [(e.kind, e.addr, e.nbytes) for e in trace.events
                if isinstance(e, ScalarEvent) and e.addr is not None]
    assert accesses == [("load", 512, 8), ("store", 528, 8),
                        ("store", 520, 8)]
    assert _digest(trace) == BLOB_DIGESTS["kinds_after_branch"]
