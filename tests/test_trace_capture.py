"""The executor writes the trace columns directly.

A capture is a :class:`~repro.functional.trace_pack.PackedTrace` whose
columns the functional executor filled as it retired instructions.
Four guarantees pin that writer, and the handlers it drives, to the
paths they replaced:

* **Pinned columns** — the column region of the blob (the bytes after
  the 8-aligned header) of every fixed capture below but the high-base
  masked store has a SHA-256 digest recorded before ``m_base`` became
  an unsigned column and the header lost its per-event side map: the
  layout change moved no column byte;
* **Pinned bytes** — the whole blobs of a fixed set of captures
  (reduced-scale fmatmul and fconv2d, three fuzz seeds, a scalar-only
  program, a program that holds one instruction object twice, a masked
  store whose base is beyond the signed 64-bit range) have SHA-256
  digests, so the disk tier and every warm store stay byte-compatible;
* **Pinned data** — next to each blob digest sits the SHA-256 of the
  final architectural state (VRF bytes, x/f registers, memory image),
  recorded with per-retirement operand resolution.  The fuzz golden
  re-executes on the same executor, so only a recorded digest catches a
  data bug in a handler both runs share;
* **Materialization agreement** — for random fuzz seeds, the
  materialized events written back into columns
  (:func:`tests.trace_builder.build_trace`) give the capture's own
  blob.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.functional import Executor
from repro.functional.memory import FunctionalMemory
from repro.functional.trace_pack import PackedTrace
from repro.fuzz.kernel import generate_case, kernel_for_case
from repro.fuzz.properties import DEFAULT_MACHINES
from repro.isa import Assembler
from repro.isa.program import Program
from repro.kernels import build_fconv2d, build_fmatmul
from repro.machine.registry import get_machine
from repro.params import AraXLConfig
from repro.timing.engine import TimingEngine
from repro.uarch import build_model
from tests.trace_builder import build_trace


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


def _masked_store_high_base():
    """A masked store with no active element never touches memory, so
    its base register may hold any 64-bit value — here 2^64 - 8, beyond
    the signed range, which the unsigned ``m_base`` column holds."""
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


#: SHA-256 of each case's packed blob, recorded when ``m_base`` became
#: an unsigned column (the header changed; the columns did not, see
#: :data:`COLUMN_DIGESTS`), and of its final architectural state
#: (:func:`_state_digest`), recorded with the executor that resolved
#: every operand per retirement.
PINNED = {
    "fmatmul": (
        lambda: _kernel_capture(build_fmatmul, m=16, k=64),
        "2b9f50b62cb36860456c8318eb257f06931dc6b9ef4b90fe6f351883705f4319",
        "c8a290d41b1e4eff520bd489b42edd67e5caf5cc6e2ecfdf0d66f91eee8b498f"),
    "fconv2d": (
        lambda: _kernel_capture(build_fconv2d, rows=32),
        "36a61549a59bf436d20ca61fc37fca2654d324828269e518ab5d7675fac59ba2",
        "4252bef9bd40400ca8457c352d799d71f771388806af421788fa6a6f7ced2a0a"),
    "fuzz-3": (
        lambda: _fuzz_capture(3),
        "96eb1c2bb3b58720d39e20371080374be50c2441875a88dda309e0e09783e3df",
        "31085cc4a291666b292b39ac8f7eff6002ed0d8235bc2160946212e52c7b008f"),
    "fuzz-17": (
        lambda: _fuzz_capture(17),
        "3af08af6eb4c72cde97123e1576226994354ff4562fbe7684401294a2e4f4c32",
        "d0ea6b6fdbf1f731bc2623b6804dbf0f146ab7ec6f81dcfb2adb3a042e49a053"),
    "fuzz-101": (
        lambda: _fuzz_capture(101),
        "3d5bdcfa20cc1886fc20dec56119e867fef2ffe2430db090f6e191ca72a3e586",
        "246de328b5d16d6b33959b1643294fa63127f25b0340f6f7fc8e65f01c5fab6b"),
    "scalar-only": (
        _scalar_only,
        "1fc52af7c851e4db9a4708c301359959893c2c96532b127f8bb40e7a5deb6054",
        "c33649ea65f37e8420deb9b61176d3f28640f99d0f2d613b429d4155aba3b266"),
    "shared-instruction": (
        _shared_instruction,
        "f0525a240125b83b02ddc71cf69eca7a2410f467bc15aa53428358f2e352289c",
        "71b973831fa28daa976b5b1a6ccf6a9d39f16be8ed21d6756e54a0553dae3141"),
    "masked-store-high-base": (
        _masked_store_high_base,
        "d1adf388d2511f41fc7a137f639fc7fceb4b6dfacf07bce1cd17e9f0e50e26a7",
        "c07e65b3009ef20956cd70e13a81374248ba7131cedc134f685b0d4cd0219cf3"),
}

#: The same pair of digests for the fuzz seeds whose materialized events
#: must pack to their capture blob (below).
FUZZ_SEEDS = np.random.default_rng(2026).integers(0, 100_000, size=6).tolist()
PINNED_FUZZ = {
    85185: (
        "1616b758e92d407e6115f89dc1a3116cd6c539f315f1827d7b8acd7f764d92d3",
        "ad1f0cc1ab6f5bd808163a13f37213c14004a2b6c727ba6ed7eb6a33e9975258"),
    17893: (
        "64ee790f8412402da8ebd3eef1d1571a82d67ce26acb62015eddfd37cfa497a2",
        "cd79895f277ec0f8eff3edd382a8452c17312711a9d512530089a1a0b256bb2b"),
    2641: (
        "026b5b8825a4d64de8c3195421e35022d7aca042fe13d0036ecb797e0cd6a446",
        "2e067ba7ff80d328a2ab59c87ec097d7af7e12277b859c48af5fd0e1723c5816"),
    63991: (
        "e6f8f4d320177b147a40b2eeaff341196290c6b49d75fef8efcb67765a00b17b",
        "318d3db398d23bbb84a433f0cd284bc192e800c3e795e1928bc4c2b012b09ce1"),
    36547: (
        "09dd25d55c482bfa6ebddfb7080aceb8bba889972fb1fd5386fb58c161a2b4a8",
        "6b23debd4a79764a2a12fac3d901aa6a5dd909c220eef574da5e25333faf2f93"),
    46726: (
        "45c731a94f00b2e050de735b4dce3f25387ecb753c199cfd70abac2d0df24958",
        "83c48b2962924d7f6001301e30bcfc1b48c85a78d93919515bab3e8e0de89d94"),
}


#: SHA-256 of the column region of each capture's blob (every case
#: above but the high-base masked store, the fuzz seeds and the
#: rebinding loop), recorded while ``m_base`` was a signed column.
COLUMN_DIGESTS = {
    "fconv2d":
        "193244290510dc2cf1891382d9f9ff8fc22efeeb19f67a5c6b3f2a563600b50c",
    "fmatmul":
        "0d9901d67697089a40f8c5d2066ac3c3463082f74adc5a72a10f8be69917ab22",
    "fuzz-101":
        "dc1c022ead94e16b086c32792321a8363e7bb66966c979bf4003772296eed02a",
    "fuzz-17":
        "5915592792b3215b250f44cfa53014413af763f2b4e9846de4701d5b0f6ea837",
    "fuzz-3":
        "f079f5610b6e4736233ebe006757dc10abc4bcf7b8679847f1226461f639df21",
    "scalar-only":
        "11831eb96ae7f1b606198ca9b4cc05b2ff1e1d7fc97d27ed92a4a1ec0b62ba4d",
    "shared-instruction":
        "4b49956ef8df8a9b07f44bd0e19558c832dd1ce385c78b8643d758647c0b213c",
    85185: "504cd76062b00d226d6a7f5dda7662d101dab44fa7bbfe105e2b13efbe66a09f",
    17893: "fe2c8ff1178d6dca186723f1ea1a22642dbb774e80ef14a0493a2acbe89a2de0",
    2641: "d799b5a02dd2cb678927b090208c9ea9beef06a1356f771a523debd2343ecb48",
    63991: "72b7dd6e916e506c094ede23dd2e23fe96268724a4337b7ce7c608dac400ce93",
    36547: "0d6713951c014c9366fec0221bfcbeea9153737f1ea7e5e05733cc1315126f74",
    46726: "98081eed07cc22048a7d04bd9107deb0335b87578b3eef8e490a8eae8a88a6e4",
    "rebinding":
        "a7dc83c1f0bf19bb46ba2a905192ab7850f2e2211b1b4614178e38e91ce924c1",
}


def _digest(captured) -> str:
    return hashlib.sha256(captured.trace.blob).hexdigest()


def _column_digest(captured) -> str:
    """SHA-256 of the blob's bytes after its 8-aligned header."""
    blob = captured.trace.blob
    (header_len,) = struct.unpack_from("<I", blob, 4)
    return hashlib.sha256(blob[(8 + header_len + 7) & ~7:]).hexdigest()


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


@pytest.mark.parametrize("case", list(COLUMN_DIGESTS), ids=str)
def test_capture_columns_match_pinned_digest(case):
    if case == "rebinding":
        captured = _rebinding()
    elif isinstance(case, int):
        captured = _fuzz_capture(case)
    else:
        captured = PINNED[case][0]()
    assert _column_digest(captured) == COLUMN_DIGESTS[case]


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
        "0e4fe54746df8edf98d4c61bc7acbde2af975ed2d944943611461b73f2dd4e95",
        "0066ef44132d7fc3f14c798519c598e6235d23889d0d04f19d6806b26f932eaa")


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_materialized_events_pack_to_the_capture_blob(seed):
    captured = _fuzz_capture(seed)
    trace = captured.trace
    assert isinstance(trace, PackedTrace)
    assert build_trace(captured.program, trace.events).blob == trace.blob


@pytest.mark.parametrize("machine", DEFAULT_MACHINES)
def test_high_base_record_replays_like_the_reference(machine):
    trace = _masked_store_high_base().trace
    assert trace.vector_count == 1 and trace.scalar_count == 4
    (store,) = trace.vector_events()
    assert store.mem.base == (1 << 64) - 8
    engine = TimingEngine(build_model(get_machine(machine)))
    assert engine.replay(trace) == engine.replay_reference(trace.events)
