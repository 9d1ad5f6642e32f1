"""BLOSS-style active sampling of training pairs.

The work closest to the paper is BLOSS (Dal Bianco et al., Inf. Syst. 2018),
which reduces the labelling effort of Supervised Meta-blocking by actively
*selecting* which candidate pairs to label instead of sampling them at
random.  The paper could not reproduce BLOSS and argues that its own 50-label
random sampling makes active learning unnecessary; this module provides a
faithful-in-spirit BLOSS-style selector so that the comparison can actually
be run:

1. candidate pairs are partitioned into similarity levels by their CF-IBF
   score (quantile bins);
2. inside every level, pairs are selected greedily so that each new pair has
   the lowest feature-space similarity to the already selected ones
   (rule-based diversity sampling);
3. selected pairs whose Jaccard (JS) weight is unusually high for their label
   are treated as outliers and dropped.

The selector returns candidate-pair indices; labels are then obtained from
the ground truth (standing in for the human oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..datamodel.ground_truth import GroundTruth
from ..utils.rng import SeedLike, make_rng
from ..weights.registry import get_scheme
from ..weights.statistics import BlockStatistics
from .features import FeatureMatrix


@dataclass(frozen=True)
class ActiveSample:
    """The outcome of active sampling: selected pair indices and their labels."""

    indices: np.ndarray
    labels: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def positives(self) -> int:
        """Number of matching pairs in the sample."""
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        """Number of non-matching pairs in the sample."""
        return len(self) - self.positives


class BlossSampler:
    """Select informative candidate pairs to label, BLOSS-style.

    Parameters
    ----------
    levels:
        Number of CF-IBF similarity levels (quantile bins).
    per_level:
        Number of pairs selected inside each level.
    outlier_fraction:
        Fraction of the selected non-matching pairs with the highest JS weight
        that are discarded as likely labelling noise (BLOSS's cleaning step).
    seed:
        Controls the tie-breaking order of the greedy selection.
    """

    def __init__(
        self,
        levels: int = 10,
        per_level: int = 5,
        outlier_fraction: float = 0.1,
        seed: SeedLike = 0,
    ) -> None:
        if levels < 1:
            raise ValueError("levels must be at least 1")
        if per_level < 1:
            raise ValueError("per_level must be at least 1")
        if not 0.0 <= outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        self.levels = levels
        self.per_level = per_level
        self.outlier_fraction = outlier_fraction
        self.seed = seed

    # -- selection ---------------------------------------------------------------
    def _assign_levels(self, cf_ibf: np.ndarray) -> np.ndarray:
        """Partition pairs into quantile bins of their CF-IBF score."""
        if np.allclose(cf_ibf, cf_ibf[0]):
            return np.zeros(cf_ibf.size, dtype=np.int64)
        quantiles = np.quantile(cf_ibf, np.linspace(0.0, 1.0, self.levels + 1)[1:-1])
        return np.searchsorted(quantiles, cf_ibf, side="right").astype(np.int64)

    def _greedy_diverse(
        self, level_indices: np.ndarray, features: np.ndarray, rng: np.random.Generator
    ) -> List[int]:
        """Pick ``per_level`` pairs maximising feature-space diversity."""
        if level_indices.size <= self.per_level:
            return level_indices.tolist()
        order = rng.permutation(level_indices.size)
        shuffled = level_indices[order]
        selected: List[int] = [int(shuffled[0])]
        # normalise features inside the level so no scheme dominates the distance
        level_features = features[shuffled]
        spread = level_features.max(axis=0) - level_features.min(axis=0)
        spread[spread == 0.0] = 1.0
        normalised = (level_features - level_features.min(axis=0)) / spread
        chosen_rows = [0]
        while len(selected) < self.per_level:
            chosen_matrix = normalised[chosen_rows]
            distances = np.min(
                np.linalg.norm(normalised[:, None, :] - chosen_matrix[None, :, :], axis=2),
                axis=1,
            )
            distances[chosen_rows] = -1.0
            best = int(np.argmax(distances))
            chosen_rows.append(best)
            selected.append(int(shuffled[best]))
        return selected

    def select(
        self,
        candidates: CandidateSet,
        stats: BlockStatistics,
        feature_matrix: FeatureMatrix,
        ground_truth: GroundTruth,
    ) -> ActiveSample:
        """Select and label an informative training sample.

        The ground truth plays the role of the human oracle: it only labels
        the pairs the sampler asks about.
        """
        if feature_matrix.n_pairs != len(candidates):
            raise ValueError("feature matrix does not match the candidate set")
        rng = make_rng(self.seed)

        cf_ibf = get_scheme("CF-IBF").compute(candidates, stats)[:, 0]
        js = get_scheme("JS").compute(candidates, stats)[:, 0]
        level_of = self._assign_levels(cf_ibf)

        selected: List[int] = []
        for level in range(level_of.max() + 1):
            level_indices = np.flatnonzero(level_of == level)
            if level_indices.size == 0:
                continue
            selected.extend(
                self._greedy_diverse(level_indices, feature_matrix.values, rng)
            )

        selected_array = np.array(sorted(set(selected)), dtype=np.int64)
        labels = ground_truth.labels_for(candidates)[selected_array]

        # BLOSS's cleaning step: drop the non-matching selections whose JS is
        # suspiciously high (they behave like matches and would confuse the
        # classifier if mislabelled).
        if self.outlier_fraction > 0.0 and np.any(~labels):
            negative_positions = np.flatnonzero(~labels)
            drop_count = int(np.floor(self.outlier_fraction * negative_positions.size))
            if drop_count > 0:
                js_of_negatives = js[selected_array[negative_positions]]
                worst = negative_positions[np.argsort(-js_of_negatives)[:drop_count]]
                keep_mask = np.ones(selected_array.size, dtype=bool)
                keep_mask[worst] = False
                selected_array = selected_array[keep_mask]
                labels = labels[keep_mask]

        return ActiveSample(
            indices=selected_array,
            labels=labels.astype(np.float64),
            levels=level_of[selected_array],
        )
