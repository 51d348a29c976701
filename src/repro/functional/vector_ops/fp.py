"""Floating-point vector semantics (VMFPU instructions).

Binary functions take ``(vs2, op1)`` in RVV assembly order; FMA functions
take ``(vd, op1, vs2)`` where ``op1`` is vs1 or the splatted f-register.

Known fidelity notes (documented deviations, consistent with the golden
NumPy models used in tests):

* FMA is computed as ``a*b + c`` with an intermediate rounding step —
  NumPy has no fused multiply-add.  Kernels and goldens share the rounding.
* ``vfmin/vfmax`` use ``np.fmin/np.fmax``, which return the non-NaN operand,
  matching the RISC-V (IEEE 754-2019 minimumNumber) behaviour.

Overflow to ±inf, invalid operations yielding NaN (``inf - inf``,
``0 * inf``) and division by zero are the defined IEEE-754 results, not
errors.  The functions below enter no ``np.errstate`` of their own: the
vector unit calls them inside its IEEE error scope
(:meth:`repro.functional.vector.VectorUnit.ieee_errors`), entered once
per executor run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _sign_inject(mode: str) -> Callable:
    """Bit-exact sign injection (handles -0.0 and NaN payloads)."""

    def apply(vs2: np.ndarray, op1: np.ndarray) -> np.ndarray:
        bits = vs2.dtype.itemsize * 8
        utype = np.dtype(f"u{vs2.dtype.itemsize}")
        sign = np.array(1 << (bits - 1), dtype=utype)
        mag = vs2.view(utype) & ~sign
        s2 = vs2.view(utype) & sign
        s1 = np.ascontiguousarray(op1, dtype=vs2.dtype).view(utype) & sign
        if mode == "j":
            new_sign = s1
        elif mode == "jn":
            new_sign = s1 ^ sign
        else:  # jx
            new_sign = s1 ^ s2
        return (mag | new_sign).view(vs2.dtype)

    return apply


BINOPS: dict[str, Callable] = {
    "vfadd": np.add,
    "vfsub": np.subtract,
    "vfrsub": lambda vs2, op1: np.subtract(op1, vs2),
    "vfmul": np.multiply,
    "vfdiv": np.divide,
    "vfrdiv": lambda vs2, op1: np.divide(op1, vs2),
    "vfmin": np.fmin,
    "vfmax": np.fmax,
    "vfsgnj": _sign_inject("j"),
    "vfsgnjn": _sign_inject("jn"),
    "vfsgnjx": _sign_inject("jx"),
}

UNARY: dict[str, Callable] = {
    "vfsqrt_v": np.sqrt,
    "vfabs_v": np.abs,
    "vfneg_v": np.negative,
}

COMPARES: dict[str, Callable] = {
    "vmfeq": np.equal,
    "vmfne": np.not_equal,
    "vmflt": np.less,
    "vmfle": np.less_equal,
    "vmfgt": np.greater,
    "vmfge": np.greater_equal,
}

#: func(vd, op1, vs2) following the RVV accumulate definitions.
FMA: dict[str, Callable] = {
    "vfmacc": lambda vd, a, b: a * b + vd,
    "vfnmacc": lambda vd, a, b: -(a * b) - vd,
    "vfmsac": lambda vd, a, b: a * b - vd,
    "vfnmsac": lambda vd, a, b: -(a * b) + vd,
    "vfmadd": lambda vd, a, b: a * vd + b,
    "vfmsub": lambda vd, a, b: a * vd - b,
    "vfnmadd": lambda vd, a, b: -(a * vd) - b,
    "vfnmsub": lambda vd, a, b: -(a * vd) + b,
    "vfwmacc": lambda vd, a, b: a * b + vd,  # operands pre-widened
}

#: The single-width :data:`FMA` functions as in-place steps ``(product
#: takes vd, negate the product, combine)``: ``t = a * (vd if product
#: takes vd else b)``, ``t = -t`` when negating, then ``vd = combine(t,
#: b if product takes vd else vd)`` — the same operations on the same
#: operands in the same order, written into vd without temporaries.
FMA_IN_PLACE: dict[str, tuple] = {
    "vfmacc": (False, False, np.add),
    "vfnmacc": (False, True, np.subtract),
    "vfmsac": (False, False, np.subtract),
    "vfnmsac": (False, True, np.add),
    "vfmadd": (True, False, np.add),
    "vfmsub": (True, False, np.subtract),
    "vfnmadd": (True, True, np.subtract),
    "vfnmsub": (True, True, np.add),
}

#: Widening FP binary ops (operands pre-widened to 2*SEW by the engine).
WIDENING: dict[str, Callable] = {
    "vfwadd": np.add,
    "vfwmul": np.multiply,
}
