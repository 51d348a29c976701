"""The executor writes the v6 trace columns directly.

A capture is a :class:`~repro.functional.trace_pack.PackedTrace` whose
columns the functional executor filled as it retired instructions.
Three guarantees pin that writer, and the handlers it drives, to the
paths they replaced:

* **Pinned bytes** — the packed blobs of a fixed set of captures
  (reduced-scale fmatmul and fconv2d, three fuzz seeds, a scalar-only
  program, a program that holds one instruction object twice, a record
  that only fits the fallback map) have SHA-256 digests recorded from
  the event-object executor, so the disk tier and every warm store stay
  byte-compatible;
* **Pinned data** — next to each blob digest sits the SHA-256 of the
  final architectural state (VRF bytes, x/f registers, memory image),
  recorded with per-retirement operand resolution.  The fuzz golden
  re-executes on the same executor, so only a recorded digest catches a
  data bug in a handler both runs share;
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


def _execute(program):
    """Run ``program`` on a fresh 1024-bit machine with 64 KiB of memory,
    keeping the memory next to the capture like a simulator does."""
    mem = FunctionalMemory(1 << 16)
    captured = Executor(1024, mem=mem).run(program)
    captured.extra["mem"] = mem
    return captured


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
    return _execute(a.build())


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
    return _execute(program)


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
    return _execute(a.build())


def _rebinding():
    """One loop body run alternately at e64/m1 and e32/m2: the same
    static ``vle64``/``vse64``, ``vfmacc.vf``, masked ``vfmacc.vv`` and
    ``vfslide1down`` execute under both vtypes and varying ``vl``, and
    v0 is rewritten (by a compare, then by a mask load) before each
    masked op that reads it."""
    a = Assembler("rebinding")
    a.li("x5", 6)            # iterations; odd ones run at e32/m2
    a.li("x10", 1024)        # source, advanced 8 bytes per iteration
    a.li("x11", 4096)        # slide results
    a.li("x12", 8192)        # masked slide results
    a.li("x13", 12288)       # mask bytes, advanced 1 byte per iteration
    a.label("loop")
    a.addi("x1", "x5", 7)    # AVL 8..13
    a.andi("x7", "x5", 1)
    a.bnez("x7", "e32")
    a.vsetvli("x2", "x1", sew=64, lmul=1)
    a.j("body")
    a.label("e32")
    a.vsetvli("x2", "x1", sew=32, lmul=2)
    a.label("body")
    a.vfmv_v_f("v16", "f0")
    a.vle64_v("v8", "x10")
    a.vfmacc_vf("v16", "f1", "v8")
    a.vmflt_vf("v0", "v8", "f2")
    a.vfmacc_vv("v16", "v8", "v8", masked=True)
    a.vfslide1down_vf("v24", "v16", "f1")
    a.vse64_v("v24", "x11")
    a.vlm_v("v0", "x13")
    a.vfslide1down_vf("v24", "v8", "f3", masked=True)
    a.vse64_v("v24", "x12")
    a.fadd_d("f1", "f1", "f3")
    a.addi("x10", "x10", 8)
    a.addi("x13", "x13", 1)
    a.addi("x5", "x5", -1)
    a.bnez("x5", "loop")
    a.halt()
    mem = FunctionalMemory(1 << 16)
    # Short dyadic doubles: their low words are zero, so the e32 view of
    # the same bytes holds finite floats too, and no NaN arises.
    mem.write_array(1024, (np.arange(64) % 7 - 3) * 0.375)
    mem.write_array(12288, (np.arange(16) * 37 % 256).astype(np.uint8))
    ex = Executor(1024, mem=mem)
    ex.state.f.write(1, 0.5)
    ex.state.f.write(2, 0.25)
    ex.state.f.write(3, -0.0625)
    captured = ex.run(a.build())
    captured.extra["mem"] = mem
    return captured


#: SHA-256 of each case's packed blob, recorded with the executor that
#: built one event object per retired instruction, and of its final
#: architectural state (:func:`_state_digest`), recorded with the
#: executor that resolved every operand per retirement.
PINNED = {
    "fmatmul": (
        lambda: _kernel_capture(build_fmatmul, m=16, k=64),
        "869486d02e34a484a7fc283b91ae819ade34111cb527c48c2231af6f880aeca6",
        "c8a290d41b1e4eff520bd489b42edd67e5caf5cc6e2ecfdf0d66f91eee8b498f"),
    "fconv2d": (
        lambda: _kernel_capture(build_fconv2d, rows=32),
        "c43faf3b719fd28cc8f1c6bdf97f025ec7cadaebf1436eb8020c9225824a2f3e",
        "4252bef9bd40400ca8457c352d799d71f771388806af421788fa6a6f7ced2a0a"),
    "fuzz-3": (
        lambda: _fuzz_capture(3),
        "40be144f65f54648d5fa534d919f5570fa9adcba458651780bbd7f92447dac14",
        "31085cc4a291666b292b39ac8f7eff6002ed0d8235bc2160946212e52c7b008f"),
    "fuzz-17": (
        lambda: _fuzz_capture(17),
        "b9eb8280ab0146b1e294fb2c75a486170f4872e06528bae9d8bea0ac243a24c3",
        "d0ea6b6fdbf1f731bc2623b6804dbf0f146ab7ec6f81dcfb2adb3a042e49a053"),
    "fuzz-101": (
        lambda: _fuzz_capture(101),
        "621f4956c0f019f9dabf6b9681a2aef6aa3c0752029a41af3dc83eac563d557b",
        "246de328b5d16d6b33959b1643294fa63127f25b0340f6f7fc8e65f01c5fab6b"),
    "scalar-only": (
        _scalar_only,
        "1e472c68593bc1e1764b1f94d9b969cecfe97e9ed63fd0eaacb12dbb0e8c2572",
        "c33649ea65f37e8420deb9b61176d3f28640f99d0f2d613b429d4155aba3b266"),
    "shared-instruction": (
        _shared_instruction,
        "ff70984b3145edd211ecad6a4035eae302f26812ed88c0fb55a4059f2e7bdd76",
        "71b973831fa28daa976b5b1a6ccf6a9d39f16be8ed21d6756e54a0553dae3141"),
    "masked-store-fallback": (
        _masked_store_off_the_map,
        "1885ef316be826c4ff325f8f98a9d800df452f45380bdd54ed17c4be7698106c",
        "c07e65b3009ef20956cd70e13a81374248ba7131cedc134f685b0d4cd0219cf3"),
}

#: The same pair of digests for the fuzz seeds whose materialized events
#: must pack to their capture blob (below).
FUZZ_SEEDS = np.random.default_rng(2026).integers(0, 100_000, size=6).tolist()
PINNED_FUZZ = {
    85185: (
        "e6bdb508f7d96976f5deadd1aff05eaf51fe009b69ca1d0f8feb37132a2853f8",
        "ad1f0cc1ab6f5bd808163a13f37213c14004a2b6c727ba6ed7eb6a33e9975258"),
    17893: (
        "38a48d2bc51dfb446c7ac04925e4e2d335e65544a4372a5e16fd22d811ec5595",
        "cd79895f277ec0f8eff3edd382a8452c17312711a9d512530089a1a0b256bb2b"),
    2641: (
        "62458dc34d9136edf9c58f536fd23925777a8ee369922520f378892b6fd26bfc",
        "2e067ba7ff80d328a2ab59c87ec097d7af7e12277b859c48af5fd0e1723c5816"),
    63991: (
        "93614c80dbbeb3e7c4467ccb9f1a19e7c3dc3fffa8488dd06440659b1eb8b4e8",
        "318d3db398d23bbb84a433f0cd284bc192e800c3e795e1928bc4c2b012b09ce1"),
    36547: (
        "e4ccd42446c5f88dc4ec9cfa0b7a84b428a304fdc5f6a31017bd3d7242ab105e",
        "6b23debd4a79764a2a12fac3d901aa6a5dd909c220eef574da5e25333faf2f93"),
    46726: (
        "38fb50faf177ea66d4a1a6ede4561ab079cda0bea7e9e019ce39227874138c21",
        "83c48b2962924d7f6001301e30bcfc1b48c85a78d93919515bab3e8e0de89d94"),
}


def _digest(captured) -> str:
    return hashlib.sha256(pack_trace(captured.trace,
                                     captured.program)).hexdigest()


def _state_digest(captured) -> str:
    """SHA-256 of the final VRF bytes, x and f registers and memory."""
    state = captured.state
    h = hashlib.sha256()
    for reg in range(32):
        h.update(state.v.raw_register(reg).tobytes())
    h.update(np.array(state.x.snapshot(), dtype=np.int64).tobytes())
    h.update(state.f.snapshot().tobytes())
    mem = captured.extra["mem"]
    h.update(mem.read_bytes(0, mem.size).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_capture_blob_matches_pinned_digest(name):
    build, digest, _ = PINNED[name]
    assert _digest(build()) == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_capture_state_matches_pinned_digest(name):
    build, _, digest = PINNED[name]
    assert _state_digest(build()) == digest


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_capture_matches_pinned_digests(seed):
    captured = _fuzz_capture(seed)
    assert (_digest(captured), _state_digest(captured)) == PINNED_FUZZ[seed]


def test_rebinding_across_vtypes_matches_pinned_digests():
    """Recorded with the executor that resolved every operand per
    retirement: switching vtype, varying ``vl`` and rewriting v0 between
    executions of the same instructions changes no byte."""
    captured = _rebinding()
    assert captured.retired == 123
    assert (_digest(captured), _state_digest(captured)) == (
        "2c5b7b4958134a1b787aa7e1054ed6fca2c3e9930e3384255b3c19e2413f1394",
        "0066ef44132d7fc3f14c798519c598e6235d23889d0d04f19d6806b26f932eaa")


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
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
