"""Training-set construction for (Generalized) Supervised Meta-blocking.

The classifier is trained on a small, balanced sample of labelled candidate
pairs.  Two sampling policies mirror the paper:

* ``"balanced"`` — a fixed number of labelled instances split equally between
  classes (the paper uses 500 for the algorithm/feature-selection studies and
  shows 50 suffices).
* ``"proportional"`` — the older rule of Supervised Meta-blocking [21]:
  5 % of the positive ground-truth pairs plus an equal number of negatives
  (used by the BCl2 / CNP2 baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..datamodel.ground_truth import GroundTruth
from ..ml.sampling import TrainingSample, balanced_sample, proportional_positive_sample
from ..utils.rng import SeedLike
from .features import FeatureMatrix


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows and labels selected for training, plus provenance."""

    features: np.ndarray
    labels: np.ndarray
    candidate_indices: np.ndarray
    policy: str

    def __len__(self) -> int:
        return int(self.labels.size)

    @property
    def positives(self) -> int:
        """Number of matching pairs in the training set."""
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        """Number of non-matching pairs in the training set."""
        return len(self) - self.positives


def build_training_set(
    feature_matrix: FeatureMatrix,
    candidates: CandidateSet,
    ground_truth: GroundTruth,
    size: int = 50,
    policy: str = "balanced",
    seed: SeedLike = None,
    labels: Optional[np.ndarray] = None,
) -> TrainingSet:
    """Assemble a labelled training set from the candidate pairs.

    Parameters
    ----------
    feature_matrix:
        Features of *all* candidate pairs (training rows are selected from it).
    candidates:
        The candidate pairs the features describe.
    ground_truth:
        Known duplicate pairs used to label the sample.
    size:
        Total number of labelled instances for the ``"balanced"`` policy.
    policy:
        ``"balanced"`` (paper default) or ``"proportional"`` ([21] baseline:
        5 % of the positive pairs plus as many negatives).
    seed:
        Sampling seed (one per repetition in the experiment runner).
    labels:
        Optional precomputed label array aligned with ``candidates``; passing
        it avoids recomputing ground-truth membership on repeated runs.
    """
    if feature_matrix.n_pairs != len(candidates):
        raise ValueError(
            "feature matrix and candidate set disagree on the number of pairs"
        )
    all_labels = labels if labels is not None else ground_truth.labels_for(candidates)
    if len(all_labels) != len(candidates):
        raise ValueError("labels array must align with the candidate set")

    if policy == "balanced":
        sample: TrainingSample = balanced_sample(all_labels, size=size, seed=seed)
    elif policy == "proportional":
        sample = proportional_positive_sample(all_labels, seed=seed)
    else:
        raise ValueError(f"unknown sampling policy {policy!r}")

    return TrainingSet(
        features=feature_matrix.values[sample.indices],
        labels=sample.labels.astype(np.float64),
        candidate_indices=sample.indices,
        policy=policy,
    )
