"""Exact functional simulation of the scalar IR + RVV subset.

This package is the "QuestaSim functional" half of the reproduction: it
executes programs element-exactly over NumPy-backed architectural state and
produces a dynamic trace that the timing engine (:mod:`repro.timing`)
replays to obtain cycle counts.
"""

from .state import ArchState, VectorRegFile
from .memory import FunctionalMemory
from .executor import Executor, ExecResult
from .trace import ScalarEvent, VectorEvent, VsetvlEvent, MemAccess

__all__ = [
    "ArchState",
    "VectorRegFile",
    "FunctionalMemory",
    "Executor",
    "ExecResult",
    "ScalarEvent",
    "VectorEvent",
    "VsetvlEvent",
    "MemAccess",
]
