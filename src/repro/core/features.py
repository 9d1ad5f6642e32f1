"""Feature-vector generation for candidate pairs.

Supervised Meta-blocking represents every candidate pair as a feature vector
whose components are weighting-scheme scores (paper Section 2.1).  The
generator assembles the requested schemes into an ``(n_pairs, n_features)``
matrix, recording the time spent per scheme so the run-time experiments can
attribute cost to individual features (LCP being the expensive one).

The matrix is *feature-major* (Fortran order): the schemes that fill it,
scaling and the column-ordered score all work a column at a time, and a
row-major matrix of width 4-6 turns each of those passes into a strided crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..utils.timing import StageTimer
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
    #: seconds spent computing each scheme
    scheme_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def n_pairs(self) -> int:
        """Number of candidate pairs (rows)."""
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.values.shape[1])

    def column_index(self, label: str) -> int:
        """Position of a column label.

        Raises
        ------
        KeyError
            Naming the available columns when ``label`` is not one of them.
        """
        try:
            return self.columns.index(label)
        except ValueError:
            available = ", ".join(repr(column) for column in self.columns)
            raise KeyError(
                f"unknown feature column {label!r}; available columns: {available}"
            ) from None

    def select(self, rows: np.ndarray) -> np.ndarray:
        """Return the feature values of the selected rows."""
        return self.values[rows]


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

    def generate(
        self,
        candidates: CandidateSet,
        stats: BlockStatistics,
        timer: Optional[StageTimer] = None,
    ) -> FeatureMatrix:
        """Compute the feature matrix for ``candidates``.

        Parameters
        ----------
        candidates:
            The distinct candidate pairs.
        stats:
            Precomputed block statistics of the underlying block collection.
        timer:
            Optional :class:`StageTimer`; feature-generation time is added to
            its ``"features"`` stage.
        """
        values = np.empty((len(candidates), len(self.columns)), dtype=np.float64, order="F")
        local_timer = StageTimer()
        stop = 0
        for scheme in self._schemes:
            start, stop = stop, stop + scheme.width
            with local_timer.stage(scheme.name):
                values[:, start:stop] = scheme.compute_sparse(candidates, stats)
        if timer is not None:
            timer.add("features", local_timer.total)
        return FeatureMatrix(
            values=values,
            columns=self.columns,
            feature_set=self.feature_set,
            scheme_seconds={scheme.name: local_timer.get(scheme.name) for scheme in self._schemes},
        )


def generate_features(
    candidates: CandidateSet,
    blocks: BlockCollection,
    feature_set: Sequence[str] = ORIGINAL_FEATURE_SET,
    stats: Optional[BlockStatistics] = None,
    timer: Optional[StageTimer] = None,
) -> FeatureMatrix:
    """Convenience wrapper: build statistics (if needed) and the feature matrix."""
    statistics = stats if stats is not None else BlockStatistics(blocks)
    return FeatureVectorGenerator(feature_set).generate(candidates, statistics, timer=timer)
