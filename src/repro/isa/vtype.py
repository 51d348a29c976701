"""RVV 1.0 ``vtype`` semantics: SEW, LMUL and ``vsetvli`` behaviour.

Implements the architecturally visible part of the vector configuration:
the ``vtype`` CSR fields used by the paper's kernels (integer LMUL 1-8,
SEW 8-64, tail/mask agnosticism is accepted but has no modelled effect)
and the new-``vl`` computation rule of ``vsetvl{i}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import IllegalInstructionError, IsaError


class SEW(enum.IntEnum):
    """Selected element width in bits."""

    E8 = 8
    E16 = 16
    E32 = 32
    E64 = 64

    @property
    def bytes(self) -> int:
        return self.value // 8

    @classmethod
    def from_bits(cls, bits: int) -> "SEW":
        try:
            return cls(bits)
        except ValueError:
            raise IsaError(f"unsupported SEW: {bits} bits") from None


class LMUL(enum.IntEnum):
    """Vector register grouping factor (integer values only).

    Fractional LMUL exists in RVV 1.0 but is not used by any of the paper's
    benchmarks (Table I uses LMUL 1, 2, 4 and 8) and is rejected here.
    """

    M1 = 1
    M2 = 2
    M4 = 4
    M8 = 8

    @classmethod
    def from_int(cls, value: int) -> "LMUL":
        try:
            return cls(value)
        except ValueError:
            raise IsaError(f"unsupported LMUL: {value}") from None


@dataclass(frozen=True)
class VType:
    """Decoded ``vtype`` value.

    ``vill`` marks the illegal configuration produced when ``vsetvli``
    requests an unsupported combination; any vector instruction executed
    under an ill-formed vtype must trap (RVV 1.0 Section 3.4.4), which the
    functional engine enforces.
    """

    sew: SEW = SEW.E64
    lmul: LMUL = LMUL.M1
    tail_agnostic: bool = True
    mask_agnostic: bool = True
    vill: bool = False

    def vlmax(self, vlen_bits: int) -> int:
        """VLMAX = VLEN * LMUL / SEW for the integer-LMUL subset."""
        if self.vill:
            return 0
        return vlen_bits * int(self.lmul) // int(self.sew)

    def register_group(self, base: int) -> tuple[int, ...]:
        """Register indices occupied by a group starting at ``base``.

        RVV requires the base register of a group to be LMUL-aligned.
        """
        step = int(self.lmul)
        if base % step:
            raise IllegalInstructionError(
                f"v{base} is not aligned to LMUL={step} register group"
            )
        return tuple(range(base, base + step))

    def encode(self) -> int:
        """Pack into the vtype CSR bit layout (vsew[5:3], vlmul[2:0])."""
        if self.vill:
            return 1 << 63
        vsew = {8: 0, 16: 1, 32: 2, 64: 3}[int(self.sew)]
        vlmul = {1: 0, 2: 1, 4: 2, 8: 3}[int(self.lmul)]
        value = vlmul | (vsew << 3)
        if self.tail_agnostic:
            value |= 1 << 6
        if self.mask_agnostic:
            value |= 1 << 7
        return value

    @classmethod
    def decode(cls, value: int) -> "VType":
        if value >> 63:
            return cls(vill=True)
        vlmul = value & 0x7
        vsew = (value >> 3) & 0x7
        if vlmul > 3 or vsew > 3:
            return cls(vill=True)
        return cls(
            sew=SEW([8, 16, 32, 64][vsew]),
            lmul=LMUL([1, 2, 4, 8][vlmul]),
            tail_agnostic=bool(value & (1 << 6)),
            mask_agnostic=bool(value & (1 << 7)),
        )


def vsetvl_result(avl: int, vtype: VType, vlen_bits: int) -> int:
    """New ``vl`` produced by ``vsetvl{i}`` for an application vector length.

    Implements the RVV 1.0 constraint set in its simplest legal form
    (the one hardware like Ara implements): ``vl = min(avl, VLMAX)``.
    """
    if avl < 0:
        raise IsaError("application vector length cannot be negative")
    vlmax = vtype.vlmax(vlen_bits)
    return min(avl, vlmax)
