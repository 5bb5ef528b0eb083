"""Small shared helpers."""

from __future__ import annotations

import os

import numpy as np


def frozen_array(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Copy to a contiguous array and make it read-only."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def in_unit_interval(a: np.ndarray) -> bool:
    """True when every entry lies in [0, 1]; NaN fails, unlike min()/max()."""
    return bool(((a >= 0.0) & (a <= 1.0)).all())


def worker_count(requested: int | None = None) -> int:
    """Number of parallel workers to use.

    Explicit ``requested`` wins, then the ROBOFACE_THREADS environment
    variable, then the CPU count. Always at least 1.
    """
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("ROBOFACE_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)
