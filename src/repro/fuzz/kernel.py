"""Wrap generated fuzz programs as :class:`~repro.kernels.common.KernelRun`.

A fuzz case enters the capture pipeline through exactly the machinery
the curated kernels use — :func:`repro.kernels.common.memo_program` for
the generated program skeleton, :func:`~repro.kernels.common.lazy_golden`
for the input image and the reference memory image — so
``CaptureTask``/``SimPool``/``TraceStore`` handle it unchanged via the
``"fuzz"`` zoo entry.

The golden model is a second, independent functional execution of the
same program at the same VLEN against a fresh minimal memory, and the
check is **byte-exact** over the S and OUT regions (``np.allclose``
would reject the NaNs and infinities random programs legitimately
produce).  Because the generated program's behaviour may depend on VLEN
(``vl = min(avl, vlmax)``), the golden key includes ``vlen_bits`` while
the program skeleton key does not.  Both builders — :func:`build_fuzz`
(the pipeline's zoo entry) and :func:`kernel_for_case` (the property
harness and the shrink loop) — memoize the input image under
``("fuzz", seed)`` (``setup`` reads only that) and the reference image
under ``("fuzz", seed, program fingerprint, vlen_bits)``, built on the
first ``check``: an unverified capture never runs the reference, one
seed pays for one reference execution per VLEN however many machines
and phases check it, and a shrunk variant (a different program) never
reads another variant's image.
"""

from __future__ import annotations

import numpy as np

from ..functional.executor import Executor
from ..functional.memory import FunctionalMemory
from ..kernels.common import KernelRun, lazy_golden, memo_program
from ..params import SystemConfig
from .gen import (REGIONS, TOTAL_BYTES, FuzzCase, ProgramGen,
                  canonical_features, input_image)


def generate_case(seed: int, size: int = 40, features: str = "all",
                  max_avl: int = 64) -> FuzzCase:
    """The (memoized) :class:`FuzzCase` named by this quadruple."""
    spec = canonical_features(features)
    return memo_program(
        ("fuzz", int(seed), int(size), spec, int(max_avl)),
        lambda: ProgramGen(seed, size=size, features=spec,
                           max_avl=max_avl).generate())


def reference_image(case: FuzzCase, vlen_bits: int,
                    inputs: np.ndarray) -> tuple:
    """Independent functional execution of ``case`` at ``vlen_bits``.

    Returns ``(s_bytes, out_bytes)``: the S and OUT region contents
    after running the program against a fresh minimal memory holding
    the seed's input image ``inputs`` in the A/B regions.
    """
    mem = FunctionalMemory(TOTAL_BYTES)
    mem.write_bytes(REGIONS["A"][0], inputs)
    Executor(vlen_bits, mem=mem).run(case.program)
    s_base, s_bytes = REGIONS["S"]
    out_base, out_bytes = REGIONS["OUT"]
    return (mem.read_bytes(s_base, s_bytes),
            mem.read_bytes(out_base, out_bytes))


def _fuzz_run(case: FuzzCase, config: SystemConfig,
              problem: dict) -> KernelRun:
    """The :class:`KernelRun` of ``case`` at ``config``'s VLEN.

    ``setup`` writes the input image, memoized under ``("fuzz", seed)``:
    it depends on the seed only.  ``check`` compares with the reference
    image, memoized under ``("fuzz", seed, program fingerprint,
    vlen_bits)``: the S/OUT contents depend on the program and the VLEN,
    and the fingerprint keeps shrunk variants of one seed apart.
    """
    vlen_bits = config.vlen_bits
    seed = case.seed
    inputs = lazy_golden(("fuzz", seed), lambda: (
        np.frombuffer(input_image(seed), dtype=np.uint8),))
    reference = lazy_golden(
        ("fuzz", seed, case.program.fingerprint, vlen_bits),
        lambda: reference_image(case, vlen_bits, inputs()[0]))

    def setup(sim) -> None:
        sim.mem.write_bytes(REGIONS["A"][0], inputs()[0])

    def check(sim) -> float:
        ref_s, ref_out = reference()
        for region, ref in (("S", ref_s), ("OUT", ref_out)):
            base, _ = REGIONS[region]
            got = sim.mem.read_bytes(base, ref.size)
            if not np.array_equal(got, ref):
                bad = np.flatnonzero(got != ref)
                raise AssertionError(
                    f"fuzz seed {case.seed} (size={case.size}, "
                    f"features={case.features!r}, max_avl={case.max_avl})"
                    f": region {region} diverges from the reference "
                    f"execution at VLEN={vlen_bits}: {bad.size} bytes "
                    f"differ, first at +0x{int(bad[0]):x}")
        return 0.0

    return KernelRun(
        name="fuzz",
        program=case.program,
        setup=setup,
        check=check,
        dp_flops=0.0,
        max_flops_per_cycle=float(2 * config.lanes),
        problem=problem,
    )


def kernel_for_case(case: FuzzCase, config: SystemConfig) -> KernelRun:
    """A :class:`KernelRun` for an explicit case.

    The property harness and the shrink loop operate on arbitrary case
    variants — including chunk subsets that no ``(seed, size, features,
    max_avl)`` quadruple names.  The reference image is memoized by
    seed, program fingerprint and VLEN, so every machine of one VLEN —
    and the pipeline's :func:`build_fuzz` run of the same seed — shares
    it.  ``setup_id`` folds in the program fingerprint so shrunk
    variants of one seed can never collide in a trace cache.
    """
    return _fuzz_run(case, config, {
        "seed": case.seed, "size": case.size, "features": case.features,
        "max_avl": case.max_avl,
        "fingerprint": case.program.fingerprint[:16]})


def build_fuzz(config: SystemConfig, bytes_per_lane: int, *, seed: int = 0,
               size: int = 40, features: str = "all") -> KernelRun:
    """Build the fuzz case for ``seed`` as a standard :class:`KernelRun`.

    ``bytes_per_lane`` plays the role it does for curated kernels —
    problem scale — by bounding AVL: ``max_avl = clamp(B/lane, 1, 256)``.
    """
    max_avl = min(max(int(bytes_per_lane), 1), 256)
    spec = canonical_features(features)
    case = generate_case(seed, size=size, features=spec, max_avl=max_avl)
    return _fuzz_run(case, config, {
        "seed": case.seed, "size": case.size, "features": spec,
        "max_avl": max_avl})
