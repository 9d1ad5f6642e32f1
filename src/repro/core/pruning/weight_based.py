"""Weight-based supervised pruning algorithms (paper Section 3.1).

All four algorithms first discard pairs with probability below 0.5 (the
*valid* pair threshold) and then apply a weight threshold:

* :class:`SupervisedWEP` — global average of the valid probabilities;
* :class:`SupervisedWNP` — per-entity average, a pair survives if it reaches
  the average of *either* constituent entity;
* :class:`SupervisedRWNP` — reciprocal variant, the pair must reach the
  average of *both* entities;
* :class:`SupervisedBLAST` — per-entity *maximum*, the pair must exceed the
  fraction ``r`` of the sum of the two maxima.

The baseline :class:`BinaryClassifierPruning` (BCl) reproduces Supervised
Meta-blocking [21]: it simply keeps every pair the classifier labels
positive, i.e. the validity threshold alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...datamodel.candidates import CandidateSet
from ...utils.validation import check_ratio
from .base import BlockTotals, SupervisedPruningAlgorithm
from .kernels import node_averages, node_maxima


class BinaryClassifierPruning(SupervisedPruningAlgorithm):
    """BCl — the Supervised Meta-blocking baseline of [21].

    Retains every candidate pair whose classification probability is at least
    0.5; equivalent to using the classifier as a single global threshold and
    the approximation of WEP the original paper relied on.
    """

    name = "BCl"
    kind = "baseline"

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, totals: Optional[BlockTotals]
    ) -> np.ndarray:
        return np.ones(len(valid), dtype=bool)


class SupervisedWEP(SupervisedPruningAlgorithm):
    """Weighted Edge Pruning — global average-probability threshold (Algorithm 1)."""

    name = "WEP"
    kind = "weight"

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, totals: Optional[BlockTotals]
    ) -> np.ndarray:
        if not probabilities.size:
            return np.zeros(0, dtype=bool)
        return probabilities >= float(probabilities.mean())


class SupervisedWNP(SupervisedPruningAlgorithm):
    """Weighted Node Pruning — per-entity average thresholds (Algorithm 2).

    A valid pair is retained when its probability reaches the average valid
    probability of at least one of its constituent entities.
    """

    name = "WNP"
    kind = "weight"
    #: whether the average of both entities must be reached (RWNP) or one (WNP)
    require_both = False

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, totals: Optional[BlockTotals]
    ) -> np.ndarray:
        averages = node_averages(
            valid.left, valid.right, probabilities, valid.index_space.total
        )
        reaches_left = probabilities >= averages[valid.left]
        reaches_right = probabilities >= averages[valid.right]
        return reaches_left & reaches_right if self.require_both else reaches_left | reaches_right


class SupervisedRWNP(SupervisedWNP):
    """Reciprocal Weighted Node Pruning — both per-entity averages must be reached."""

    name = "RWNP"
    kind = "weight"
    require_both = True


class SupervisedBLAST(SupervisedPruningAlgorithm):
    """BLAST — per-entity maximum-probability thresholds (Algorithm 3).

    A valid pair ``(i, j)`` survives when its probability is at least
    ``r * (max_i + max_j)``, where ``max_i`` is the highest valid probability
    among the pairs of entity ``i``.  The paper fixes ``r = 0.35`` based on
    preliminary experiments.
    """

    name = "BLAST"
    kind = "weight"

    def __init__(self, ratio: float = 0.35) -> None:
        self.ratio = check_ratio(ratio, "ratio")

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, totals: Optional[BlockTotals]
    ) -> np.ndarray:
        maxima = node_maxima(valid.left, valid.right, probabilities, valid.index_space.total)
        return probabilities >= self.ratio * (maxima[valid.left] + maxima[valid.right])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SupervisedBLAST(ratio={self.ratio})"
