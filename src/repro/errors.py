"""Exception hierarchy for the AraXL reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause
while still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A system or memory configuration is inconsistent or unsupported."""


class IsaError(ReproError):
    """An instruction is malformed or uses unsupported operands."""


class AssemblerError(IsaError):
    """The assembler DSL was used incorrectly (bad label, bad operand)."""


class ExecutionError(ReproError):
    """The functional simulator hit an illegal runtime condition."""


class IllegalInstructionError(ExecutionError):
    """An instruction that is architecturally illegal in the current state.

    Mirrors the RISC-V illegal-instruction exception, e.g. a vector
    instruction executed with an invalid ``vtype`` or an element width
    unsupported by the current configuration.
    """


class MemoryAccessError(ExecutionError):
    """An access outside the mapped memory range or misaligned when illegal."""


class TimingError(ReproError):
    """The timing engine was driven with inconsistent transactions."""

