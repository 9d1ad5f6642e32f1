"""Training-set sampling with undersampling.

ER suffers from extreme class imbalance: almost all candidate pairs are
non-matching.  The paper addresses it with undersampling — a balanced
training set with the same number of positive and negative labelled pairs —
and shows that as few as 25 instances per class are enough.

:func:`balanced_sample` draws such a training set from the labelled candidate
pairs; :func:`proportional_positive_sample` reproduces the older rule of
Supervised Meta-blocking [21] (5 % of the positive pairs in the ground truth,
matched by an equal number of negatives), used by the BCl2/CNP2 baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import SeedLike, make_rng, sample_without_replacement


@dataclass(frozen=True)
class TrainingSample:
    """Indices (into the candidate set) and labels of a training sample."""

    indices: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def positives(self) -> int:
        """Number of positive instances in the sample."""
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        """Number of negative instances in the sample."""
        return len(self) - self.positives


def balanced_sample(
    labels: np.ndarray,
    size: int,
    seed: SeedLike = None,
) -> TrainingSample:
    """Draw a balanced training sample of ``size`` labelled pairs.

    Parameters
    ----------
    labels:
        Boolean array over all candidate pairs (True = matching).
    size:
        Total number of labelled instances; half are drawn from each class.
        When a class has fewer members than requested, all of them are used
        (the sample is then smaller/imbalanced, mirroring reality on tiny
        datasets).
    seed:
        Seed or generator controlling the draw.
    """
    if size < 2:
        raise ValueError("size must be at least 2 (one instance per class)")
    labels = np.asarray(labels).astype(bool)
    rng = make_rng(seed)

    positive_indices = np.flatnonzero(labels)
    negative_indices = np.flatnonzero(~labels)
    if positive_indices.size == 0 or negative_indices.size == 0:
        raise ValueError("both classes must be present among the candidate pairs")

    per_class = size // 2
    chosen_positive = positive_indices[
        sample_without_replacement(rng, positive_indices.size, per_class)
    ]
    chosen_negative = negative_indices[
        sample_without_replacement(rng, negative_indices.size, per_class)
    ]

    indices = np.concatenate([chosen_positive, chosen_negative])
    order = rng.permutation(indices.size)
    indices = indices[order]
    return TrainingSample(indices=indices, labels=labels[indices])


def proportional_positive_sample(
    labels: np.ndarray,
    positive_fraction: float = 0.05,
    seed: SeedLike = None,
    min_per_class: int = 5,
) -> TrainingSample:
    """Training sample of Supervised Meta-blocking [21].

    Draws ``positive_fraction`` of the positive candidate pairs (at least
    ``min_per_class``) and an equal number of negative pairs.
    """
    if not 0.0 < positive_fraction <= 1.0:
        raise ValueError("positive_fraction must be in (0, 1]")
    labels = np.asarray(labels).astype(bool)
    rng = make_rng(seed)

    positive_indices = np.flatnonzero(labels)
    negative_indices = np.flatnonzero(~labels)
    if positive_indices.size == 0 or negative_indices.size == 0:
        raise ValueError("both classes must be present among the candidate pairs")

    per_class = max(min_per_class, int(round(positive_fraction * positive_indices.size)))
    per_class = min(per_class, positive_indices.size)

    chosen_positive = positive_indices[
        sample_without_replacement(rng, positive_indices.size, per_class)
    ]
    chosen_negative = negative_indices[
        sample_without_replacement(rng, negative_indices.size, min(per_class, negative_indices.size))
    ]

    indices = np.concatenate([chosen_positive, chosen_negative])
    order = rng.permutation(indices.size)
    indices = indices[order]
    return TrainingSample(indices=indices, labels=labels[indices])
