"""Input validation helpers shared across the library."""

from __future__ import annotations

from typing import Any

import numpy as np


def check_ratio(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in (0, 1]."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def check_matrix(features: Any, name: str = "X") -> np.ndarray:
    """Coerce ``features`` into a finite 2-D float64 array."""
    array = np.asarray(features, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {array.shape}")
    if array.size and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return array


def check_binary_labels(labels: Any, name: str = "y") -> np.ndarray:
    """Coerce ``labels`` into a 1-D {0, 1} float array."""
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {array.shape}")
    as_float = array.astype(np.float64)
    # np.unique only for the message: its first call imports numpy.ma
    if not np.all((as_float == 0.0) | (as_float == 1.0)):
        raise ValueError(
            f"{name} must contain only 0/1 labels, got values {np.unique(as_float)}"
        )
    return as_float


def check_consistent_length(first: np.ndarray, second: np.ndarray) -> None:
    """Raise when the two arrays disagree on their first dimension."""
    if len(first) != len(second):
        raise ValueError(
            f"inconsistent lengths: {len(first)} vs {len(second)}"
        )
