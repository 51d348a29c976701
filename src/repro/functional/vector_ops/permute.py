"""Slide / gather / compress semantics (SLDU instructions).

Functions return the full destination body (vl elements); the engine
applies masking and the slideup "elements below OFFSET are untouched" rule
via the returned write mask where needed.
"""

from __future__ import annotations

import numpy as np


def slideup(vs2: np.ndarray, dest: np.ndarray, offset: int) -> np.ndarray:
    """vslideup: dest[i] = vs2[i - offset] for i >= offset.

    Elements below ``offset`` keep the destination's previous contents
    (RVV: they are not part of the body).
    """
    vl = dest.size
    out = dest.copy()
    if offset < vl:
        out[offset:] = vs2[: vl - offset]
    return out


def slidedown(vs2_full: np.ndarray, vl: int, offset: int) -> np.ndarray:
    """vslidedown: dest[i] = vs2[i + offset], zero beyond the source group.

    ``vs2_full`` must contain the whole register group (VLMAX elements),
    because slidedown may read beyond vl.
    """
    out = np.zeros(vl, dtype=vs2_full.dtype)
    avail = max(0, min(vl, vs2_full.size - offset))
    if avail:
        out[:avail] = vs2_full[offset:offset + avail]
    return out


def slide1up(vs2: np.ndarray, scalar, vl: int) -> np.ndarray:
    """Shift elements up one slot; ``scalar`` enters at index 0 (no
    element at ``vl`` = 0)."""
    out = np.empty(vl, dtype=vs2.dtype)
    if vl:
        out[0] = scalar
        out[1:] = vs2[: vl - 1]
    return out


def slide1down(vs2: np.ndarray, scalar, vl: int) -> np.ndarray:
    """Shift elements down one slot; ``scalar`` enters at vl-1 (no
    element at ``vl`` = 0)."""
    out = np.empty(vl, dtype=vs2.dtype)
    if vl:
        out[: vl - 1] = vs2[1:vl]
        out[vl - 1] = scalar
    return out


def rgather(vs2_full: np.ndarray, indices: np.ndarray, vlmax: int) -> np.ndarray:
    """vrgather: dest[i] = indices[i] >= vlmax ? 0 : vs2[indices[i]]."""
    idx = indices.astype(np.int64)
    out = np.zeros(idx.size, dtype=vs2_full.dtype)
    valid = (idx >= 0) & (idx < min(vlmax, vs2_full.size))
    out[valid] = vs2_full[idx[valid]]
    return out


def compress(vs2: np.ndarray, select: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """vcompress: pack selected elements to the front; tail undisturbed."""
    packed = vs2[select[: vs2.size]]
    out = dest.copy()
    out[: packed.size] = packed
    return out
