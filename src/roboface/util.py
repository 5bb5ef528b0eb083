"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def frozen_array(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Copy to a contiguous array and make it read-only."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def is_positive_finite(x) -> bool:
    """True for a finite number above 0; NaN fails, unlike ``x <= 0``."""
    return bool(np.isfinite(x) and x > 0)


def in_unit_interval(a: np.ndarray) -> bool:
    """True when every entry lies in [0, 1]; NaN fails, unlike min()/max()."""
    return bool(((a >= 0.0) & (a <= 1.0)).all())
