"""Vector memory access decoding (VLSU instructions).

Loads and stores move raw bytes — signedness never matters at this level,
so all data travels in unsigned views of the effective element width (EEW).
The EEW of ``vle32`` under SEW=64 differs from SEW; per RVV 1.0 the
effective LMUL is rescaled as ``EMUL = EEW/SEW * LMUL`` (the accesses
themselves are bound in :meth:`repro.functional.vector.VectorUnit.bind`).
"""

from __future__ import annotations

from ...errors import IllegalInstructionError


def eew_from_mnemonic(mnemonic: str) -> int:
    """Extract the encoded element width in bits (vle64_v -> 64)."""
    digits = "".join(ch for ch in mnemonic.split("_")[0] if ch.isdigit())
    if not digits:
        raise IllegalInstructionError(f"{mnemonic} has no element width")
    return int(digits)
