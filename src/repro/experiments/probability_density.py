"""Experiment E8 — Figure 12 (distribution of matching probabilities).

The paper explains the counter-intuitive training-size behaviour (recall up,
precision down) by looking at the distribution of the classifier's matching
probabilities for duplicate vs non-duplicate candidate pairs as the training
set grows: larger training sets push *both* populations towards higher
probabilities, so more non-matching pairs clear the pruning thresholds.

This module reproduces the data behind Figure 12: for a chosen dataset (AbtBuy
in the paper) and a sweep of training sizes, it returns histograms of the
probabilities of the two populations plus the average and maximum pruning
thresholds across entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pruning import VALIDITY_THRESHOLD
from ..core.pruning.kernels import node_averages
from ..evaluation.reporting import format_table
from .common import ExperimentConfig, algorithm_pipeline, prepare_dataset


@dataclass
class ProbabilityDensitySnapshot:
    """Probability distributions for one training-set size."""

    training_size: int
    #: histogram bin edges shared by both populations
    bin_edges: np.ndarray
    #: normalised histogram of the duplicate pairs' probabilities
    matching_density: np.ndarray
    #: normalised histogram of the non-matching pairs' probabilities
    non_matching_density: np.ndarray
    #: average per-entity pruning threshold (mean of the per-node averages)
    average_threshold: float
    #: maximum per-entity pruning threshold
    maximum_threshold: float
    #: quartiles of the matching / non-matching probability populations
    matching_quartiles: Tuple[float, float, float]
    non_matching_quartiles: Tuple[float, float, float]

    def as_row(self) -> Dict[str, float]:
        """Summary row for the report (medians and thresholds)."""
        return {
            "training_size": self.training_size,
            "match_median_p": self.matching_quartiles[1],
            "non_match_median_p": self.non_matching_quartiles[1],
            "avg_threshold": self.average_threshold,
            "max_threshold": self.maximum_threshold,
        }


def _per_entity_average_thresholds(probabilities: np.ndarray, candidates) -> np.ndarray:
    """Per-node averages of the valid probabilities (the WNP thresholds)."""
    valid = probabilities >= VALIDITY_THRESHOLD
    averages = node_averages(
        candidates.left[valid],
        candidates.right[valid],
        probabilities[valid],
        candidates.index_space.total,
    )
    return averages[np.isfinite(averages)]


def run_probability_density(
    dataset_name: str = "AbtBuy",
    training_sizes: Sequence[int] = (50, 200, 500),
    config: Optional[ExperimentConfig] = None,
    bins: int = 20,
) -> List[ProbabilityDensitySnapshot]:
    """Compute the Figure 12 data for one dataset across training sizes."""
    config = config or ExperimentConfig()
    dataset = prepare_dataset(dataset_name, seed=config.seed)
    prepared = dataset.prepared
    stats = prepared.statistics()
    bin_edges = np.linspace(0.0, 1.0, bins + 1)

    snapshots: List[ProbabilityDensitySnapshot] = []
    for size in training_sizes:
        result = algorithm_pipeline("BLAST", config, training_size=size).run(
            prepared.blocks, prepared.candidates, dataset.ground_truth, stats=stats
        )
        probabilities = result.probabilities
        labels = result.labels.astype(bool)

        matching = probabilities[labels]
        non_matching = probabilities[~labels]
        matching_hist, _ = np.histogram(matching, bins=bin_edges, density=True)
        non_matching_hist, _ = np.histogram(non_matching, bins=bin_edges, density=True)
        thresholds = _per_entity_average_thresholds(probabilities, prepared.candidates)

        def _quartiles(values: np.ndarray) -> Tuple[float, float, float]:
            if values.size == 0:
                return (0.0, 0.0, 0.0)
            q1, q2, q3 = np.percentile(values, [25, 50, 75])
            return (float(q1), float(q2), float(q3))

        snapshots.append(
            ProbabilityDensitySnapshot(
                training_size=size,
                bin_edges=bin_edges,
                matching_density=matching_hist,
                non_matching_density=non_matching_hist,
                average_threshold=float(thresholds.mean()) if thresholds.size else 0.0,
                maximum_threshold=float(thresholds.max()) if thresholds.size else 0.0,
                matching_quartiles=_quartiles(matching),
                non_matching_quartiles=_quartiles(non_matching),
            )
        )
    return snapshots


def format_probability_density(snapshots: Sequence[ProbabilityDensitySnapshot]) -> str:
    """Render the summary rows of the Figure 12 data."""
    return format_table(
        [snapshot.as_row() for snapshot in snapshots],
        columns=[
            "training_size",
            "match_median_p",
            "non_match_median_p",
            "avg_threshold",
            "max_threshold",
        ],
        title="Figure 12 — matching-probability distributions vs training size",
    )


def probabilities_shift_upwards(snapshots: Sequence[ProbabilityDensitySnapshot]) -> bool:
    """Check the paper's observation that larger training sets push probabilities up.

    Compares the median matching probability of the smallest and largest
    training sizes.
    """
    ordered = sorted(snapshots, key=lambda snapshot: snapshot.training_size)
    if len(ordered) < 2:
        return True
    return ordered[-1].matching_quartiles[1] >= ordered[0].matching_quartiles[1] - 1e-9
