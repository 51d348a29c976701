"""The executor writes the v6 trace columns directly.

A capture is a :class:`~repro.functional.trace_pack.PackedTrace` whose
columns the functional executor filled as it retired instructions.  Two
guarantees pin that writer to the object path it replaced:

* **Pinned bytes** — the packed blobs of a fixed set of captures
  (reduced-scale fmatmul and fconv2d, three fuzz seeds, a scalar-only
  program, a program that holds one instruction object twice, a record
  that only fits the fallback map) have SHA-256 digests recorded from
  the event-object executor, so the disk tier and every warm store stay
  byte-compatible;
* **Object path agreement** — for random fuzz seeds, packing the
  materialized events with :func:`pack_trace` gives the capture's own
  blob.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.functional import Executor
from repro.functional.memory import FunctionalMemory
from repro.functional.trace_pack import PackedTrace, pack_trace
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.isa import Assembler
from repro.isa.program import Program
from repro.kernels import build_fconv2d, build_fmatmul
from repro.machine.registry import get_machine
from repro.params import AraXLConfig
from repro.timing.engine import TimingEngine
from repro.uarch import build_model


def _kernel_capture(build_kernel, **problem):
    config = AraXLConfig(lanes=8)
    return build_kernel(config, 64, **problem).capture(config,
                                                    verify=False)


def _fuzz_capture(seed: int):
    config = get_machine("8L-Ara2")
    case = generate_case(seed, size=40, features="all", max_avl=64)
    return kernel_for_case(case, config).capture(config, verify=False)


def _scalar_only():
    """Loads, stores, ALU, multiply/divide, scalar FP and both branch
    outcomes, with no vector instruction."""
    a = Assembler("scalar_only")
    a.li("x1", 256)
    a.li("x2", 5)
    a.li("x5", 3)
    a.label("loop")
    a.ld("x3", "x1", 0)
    a.addi("x3", "x3", 7)
    a.sd("x3", "x1", 8)
    a.mul("x4", "x3", "x2")
    a.div("x4", "x4", "x5")
    a.fld("f1", "x1", 16)
    a.fadd_d("f2", "f1", "f1")
    a.fsd("f2", "x1", 24)
    a.addi("x1", "x1", 32)
    a.addi("x2", "x2", -1)
    a.bnez("x2", "loop")
    a.j("done")
    a.nop()
    a.label("done")
    a.halt()
    return Executor(1024, mem=FunctionalMemory(1 << 16)).run(a.build())


def _shared_instruction():
    """A program whose instruction tuple holds the same vector and
    scalar instruction objects at two positions each."""
    a = Assembler("shared")
    a.li("x1", 64)
    a.li("x10", 1024)
    a.vsetvli("x2", "x1", sew=64, lmul=2)
    add = a.vfadd_vv("v4", "v8", "v12")
    a.vle64_v("v8", "x10")
    inc = a.addi("x10", "x10", 64)
    a.halt()
    body = a.build().instructions
    program = Program(instructions=body[:-1] + (add, inc, body[3],
                                                body[-1]),
                      name="shared")
    return Executor(1024, mem=FunctionalMemory(1 << 16)).run(program)


def _masked_store_off_the_map():
    """A masked store with no active element never touches memory, so
    its base register may hold any 64-bit value — here one beyond the
    signed columns, which sends the record to the fallback map."""
    a = Assembler("off_the_map")
    a.li("x1", 4)
    a.li("x10", -8)
    a.vsetvli("x2", "x1", sew=64, lmul=1)
    a.vse64_v("v8", "x10", masked=True)  # v0 is all zero
    a.addi("x10", "x10", 8)
    a.halt()
    return Executor(1024, mem=FunctionalMemory(1 << 16)).run(a.build())


#: SHA-256 of each case's packed blob, recorded with the executor that
#: built one event object per retired instruction.
PINNED = {
    "fmatmul": (
        lambda: _kernel_capture(build_fmatmul, m=16, k=64),
        "869486d02e34a484a7fc283b91ae819ade34111cb527c48c2231af6f880aeca6"),
    "fconv2d": (
        lambda: _kernel_capture(build_fconv2d, rows=32),
        "c43faf3b719fd28cc8f1c6bdf97f025ec7cadaebf1436eb8020c9225824a2f3e"),
    "fuzz-3": (
        lambda: _fuzz_capture(3),
        "40be144f65f54648d5fa534d919f5570fa9adcba458651780bbd7f92447dac14"),
    "fuzz-17": (
        lambda: _fuzz_capture(17),
        "b9eb8280ab0146b1e294fb2c75a486170f4872e06528bae9d8bea0ac243a24c3"),
    "fuzz-101": (
        lambda: _fuzz_capture(101),
        "621f4956c0f019f9dabf6b9681a2aef6aa3c0752029a41af3dc83eac563d557b"),
    "scalar-only": (
        _scalar_only,
        "1e472c68593bc1e1764b1f94d9b969cecfe97e9ed63fd0eaacb12dbb0e8c2572"),
    "shared-instruction": (
        _shared_instruction,
        "ff70984b3145edd211ecad6a4035eae302f26812ed88c0fb55a4059f2e7bdd76"),
    "masked-store-fallback": (
        _masked_store_off_the_map,
        "1885ef316be826c4ff325f8f98a9d800df452f45380bdd54ed17c4be7698106c"),
}


def _digest(captured) -> str:
    return hashlib.sha256(pack_trace(captured.trace,
                                     captured.program)).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_capture_blob_matches_pinned_digest(name):
    build, digest = PINNED[name]
    assert _digest(build()) == digest


@pytest.mark.parametrize("seed", np.random.default_rng(2026).integers(
    0, 100_000, size=6).tolist())
def test_materialized_events_pack_to_the_capture_blob(seed):
    captured = _fuzz_capture(seed)
    trace = captured.trace
    assert isinstance(trace, PackedTrace)
    blob = pack_trace(trace, captured.program)
    assert pack_trace(trace.to_trace(), captured.program) == blob


def test_fallback_record_replays_like_the_reference():
    captured = _masked_store_off_the_map()
    trace = captured.trace
    assert len(trace.fallback) == 1
    assert trace.vector_count == 1 and trace.scalar_count == 4
    engine = TimingEngine(build_model(get_machine("8L-AraXL")))
    assert engine.replay(trace) == engine.replay_reference(trace)
