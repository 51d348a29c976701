"""Vector memory access semantics (VLSU instructions).

Loads and stores move raw bytes — signedness never matters at this level,
so all data travels in unsigned views of the effective element width (EEW).
The EEW of ``vle32`` under SEW=64 differs from SEW; per RVV 1.0 the
effective LMUL is rescaled as ``EMUL = EEW/SEW * LMUL``.
"""

from __future__ import annotations

import numpy as np

from ...errors import IllegalInstructionError
from ...isa.instructions import MemPattern


def eew_from_mnemonic(mnemonic: str) -> int:
    """Extract the encoded element width in bits (vle64_v -> 64)."""
    digits = "".join(ch for ch in mnemonic.split("_")[0] if ch.isdigit())
    if not digits:
        raise IllegalInstructionError(f"{mnemonic} has no element width")
    return int(digits)


def data_shape(eew: int | None, pattern: MemPattern, vl: int, sew: int,
               lmul: int) -> tuple[int, int, int]:
    """``(element bytes, EMUL of the data group, elements moved — bytes
    for mask loads)`` of a memory instruction whose mnemonic encodes the
    element width ``eew`` (:func:`eew_from_mnemonic`; unused for mask
    and indexed accesses)."""
    if pattern is MemPattern.MASK:
        # vlm/vsm move ceil(vl/8) bytes into the mask layout, EMUL=1.
        return 1, 1, (vl + 7) // 8
    if pattern is MemPattern.INDEXED:
        # Indexed accesses use SEW-wide data; the mnemonic width is the
        # *index* EEW, handled separately by the engine.
        return sew // 8, lmul, vl
    # A fractional EMUL collapses to one register here.
    return eew // 8, max(1, eew * lmul // sew), vl


def unit_dtype(ew_bytes: int) -> np.dtype:
    """Unsigned dtype moving ``ew_bytes``-wide memory elements."""
    return np.dtype(f"u{ew_bytes}")
