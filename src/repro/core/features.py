"""Feature-vector generation for candidate pairs.

Supervised Meta-blocking represents every candidate pair as a feature vector
whose components are weighting-scheme scores (paper Section 2.1).  The
generator assembles the requested schemes into an ``(n_pairs, n_features)``
matrix.

The matrix is *feature-major* (Fortran order): the schemes that fill it,
scaling and the column-ordered score all work a column at a time, and a
row-major matrix of width 4-6 turns each of those passes into a strided crawl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..weights.registry import ORIGINAL_FEATURE_SET, get_schemes
from ..weights.statistics import BlockStatistics


@dataclass
class FeatureMatrix:
    """A feature matrix plus its column metadata."""

    #: the (n_pairs, n_features) feature values, feature-major
    values: np.ndarray
    #: column labels, e.g. ["CF-IBF", "RACCB", "LCP(e_i)", "LCP(e_j)"]
    columns: Tuple[str, ...]
    #: the scheme names the matrix was generated from
    feature_set: Tuple[str, ...]

    @property
    def n_pairs(self) -> int:
        """Number of candidate pairs (rows)."""
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.values.shape[1])


class FeatureVectorGenerator:
    """Generate feature matrices for a configurable set of weighting schemes.

    Parameters
    ----------
    feature_set:
        Scheme names (see :mod:`repro.weights.registry`).  Defaults to the
        optimal set of Supervised Meta-blocking [21].
    """

    def __init__(self, feature_set: Sequence[str] = ORIGINAL_FEATURE_SET) -> None:
        names = tuple(feature_set)
        if not names:
            raise ValueError("feature_set must contain at least one scheme")
        self.feature_set = names
        self._schemes = get_schemes(names)

    @property
    def schemes(self) -> Tuple:
        """The instantiated weighting-scheme objects, in feature-set order."""
        return tuple(self._schemes)

    @property
    def columns(self) -> Tuple[str, ...]:
        """Column labels of the matrices this generator produces."""
        labels: List[str] = []
        for scheme in self._schemes:
            if scheme.width == 1:
                labels.append(scheme.name)
            else:
                labels.extend(f"{scheme.name}(e_{side})" for side in ("i", "j"))
        return tuple(labels)

    def generate(self, candidates: CandidateSet, stats: BlockStatistics) -> FeatureMatrix:
        """Compute the feature matrix for ``candidates``.

        Parameters
        ----------
        candidates:
            The distinct candidate pairs.
        stats:
            The block statistics of the underlying collection: batch
            preparation's (``prepared.statistics()``) or a stream's
            (:class:`repro.incremental.IndexStatistics`, the same class).
        """
        values = np.empty((len(candidates), len(self.columns)), dtype=np.float64, order="F")
        stop = 0
        for scheme in self._schemes:
            start, stop = stop, stop + scheme.width
            values[:, start:stop] = scheme.compute(candidates, stats)
        return FeatureMatrix(values=values, columns=self.columns, feature_set=self.feature_set)

