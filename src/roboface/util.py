"""Small shared helpers."""

from __future__ import annotations

import math
import numbers

import numpy as np


def frozen_array(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Copy to a contiguous array and make it read-only."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def is_real(value) -> bool:
    """True for a finite real number. Bools and strings are not numbers
    here; numpy floats and integers are."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def is_positive_finite(x) -> bool:
    """True for a finite real above 0 (``is_real``); NaN fails, unlike
    ``x <= 0``."""
    return is_real(x) and x > 0


def in_unit_interval(a: np.ndarray) -> bool:
    """True when every entry lies in [0, 1]; NaN fails, unlike min()/max()."""
    return bool(((a >= 0.0) & (a <= 1.0)).all())


def is_index(value, size: float = math.inf) -> bool:
    """True for an integer in [0, size). Bools are not integers here; numpy
    integers are."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and 0 <= value < size
    )


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least 1
    (``is_index``)."""
    if not (is_index(value) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def json_entry(label: str, doc, key: str, kind: type = object):
    """``doc[key]`` from the JSON file ``label`` names; ``ValueError`` naming
    the key if ``doc`` is not an object, lacks the key or holds no ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(
            f"{label}: {key!r} must sit in a JSON object, got {type(doc).__name__}"
        )
    if key not in doc:
        raise ValueError(f"{label} lacks key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ValueError(
            f"{label} key {key!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value
