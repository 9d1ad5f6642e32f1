"""Feature scaling.

The weighting schemes have very different ranges (JS in [0, 1], CF-IBF
unbounded, LCP in the hundreds), so classifiers converge much better on
standardised features.  Both scalers are one affine map, ``(x - offset) /
scale`` per column (a no-op on constant columns): ``transform`` subtracts into
a new array and divides it in place, down the contiguous columns of a
feature-major matrix.  Session snapshots pickle the fitted attribute names.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.validation import check_matrix


class _AffineScaler:
    """``(x - offset) / scale``; a subclass names and learns the two vectors."""

    #: attribute names of the learned (offset, scale)
    _fitted: Tuple[str, str]

    def fit(self, features: np.ndarray):
        """Learn the per-column offset and scale."""
        matrix = check_matrix(features)
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty matrix")
        offset, scale = self._statistics(matrix)
        scale[scale == 0.0] = 1.0
        for name, value in zip(self._fitted, (offset, scale)):
            setattr(self, name, value)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Apply the learned scaling to a new array (the input is left alone)."""
        offset, scale = (getattr(self, name) for name in self._fitted)
        if offset is None or scale is None:
            raise RuntimeError(f"{type(self).__name__} must be fit before transform")
        matrix = check_matrix(features)
        if matrix.shape[1] != offset.shape[0]:
            raise ValueError(f"expected {offset.shape[0]} features, got {matrix.shape[1]}")
        scaled = matrix - offset
        scaled /= scale
        return scaled

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit on ``features`` and return the transformed matrix."""
        return self.fit(features).transform(features)


class StandardScaler(_AffineScaler):
    """Standardise features to zero mean and unit variance."""

    mean_ = scale_ = None
    _fitted = ("mean_", "scale_")

    def _statistics(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return matrix.mean(axis=0), matrix.std(axis=0)


class MinMaxScaler(_AffineScaler):
    """Scale features to the [0, 1] range column-wise."""

    min_ = range_ = None
    _fitted = ("min_", "range_")

    def _statistics(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        low = matrix.min(axis=0)
        return low, matrix.max(axis=0) - low
