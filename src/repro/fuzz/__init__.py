"""Seeded RVV program fuzzer and differential property harness.

``repro.fuzz`` proves the pipeline's identity guarantees over the whole
functional ISA instead of only the curated kernels:

* :mod:`repro.fuzz.rng` — a pure SHA-256 counter RNG (no ``random``, no
  wall clock), so every generated byte derives from the seed alone;
* :mod:`repro.fuzz.gen` — :class:`ProgramGen`, the seeded generator of
  valid machine-independent RVV programs (mixed SEW/LMUL, arithmetic,
  FP, masks, reductions, permutes, all three memory patterns, scalar
  glue and bounded loops);
* :mod:`repro.fuzz.kernel` — :func:`build_fuzz`, which wraps a generated
  case as a :class:`~repro.kernels.common.KernelRun` so it enters the
  capture pipeline through the same skeleton/lazy-golden memo path as
  Table I kernels (``CaptureTask``/``SimPool``/``TraceStore`` handle it
  unchanged via the ``"fuzz"`` zoo entry);
* :mod:`repro.fuzz.properties` — the three differential properties
  checked per generated program;
* :mod:`repro.fuzz.shrink` — the minimizing reproducer loop.

See ``docs/fuzzing.md`` for the user-facing workflow.
"""

from .gen import FEATURES, FuzzCase, ProgramGen, parse_features
from .kernel import build_fuzz
from .properties import PropertyFailure, check_case, check_seed
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "FEATURES",
    "FuzzCase",
    "ProgramGen",
    "parse_features",
    "build_fuzz",
    "PropertyFailure",
    "check_case",
    "check_seed",
    "ShrinkResult",
    "shrink_case",
]
