"""Reduction semantics (vred*/vfred* instructions).

A reduction folds ``vs2[0..vl-1]`` into the scalar seed ``vs1[0]`` and
writes the result to element 0 of ``vd``.

Ordering note: ``vfredosum`` is architecturally a strictly ordered sum.
We compute both ordered and unordered FP sums with ``np.add.reduce`` over
float64, which is deterministic but may differ from a strictly sequential
sum in the last ULPs; golden models in tests use matching tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _sum(values: np.ndarray, seed) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return values.dtype.type(seed + np.add.reduce(values, dtype=values.dtype))


def _minmax(npfunc, reducer) -> Callable:
    def apply(values: np.ndarray, seed):
        if values.size == 0:
            return values.dtype.type(seed)
        return values.dtype.type(npfunc(seed, reducer(values)))

    return apply


REDUCTIONS: dict[str, Callable] = {
    "vredsum_vs": _sum,
    "vredmax_vs": _minmax(max, np.max),
    "vredmin_vs": _minmax(min, np.min),
    "vredand_vs": _minmax(np.bitwise_and, np.bitwise_and.reduce),
    "vredor_vs": _minmax(np.bitwise_or, np.bitwise_or.reduce),
    "vredxor_vs": _minmax(np.bitwise_xor, np.bitwise_xor.reduce),
    "vfredusum_vs": _sum,
    "vfredosum_vs": _sum,
    "vfredmax_vs": _minmax(np.fmax, np.max),
    "vfredmin_vs": _minmax(np.fmin, np.min),
}
