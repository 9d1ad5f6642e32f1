"""Experiment E5 — Figures 7 and 9 (run-time of the top-10 feature sets).

For the top feature sets of BLAST and RCNP, measures the time needed to
compute the features of every candidate pair and to score them with the
trained classifier (the paper excludes the common block-restructuring
overhead).  The paper runs this on the two largest datasets (Movies and
WalmartAmazon); the default configuration uses their generated counterparts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.features import FeatureVectorGenerator
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..core.feature_selection import PreparedDataset
from ..evaluation.reporting import format_table
from .common import ExperimentConfig, prepare_benchmark_dataset

#: The ten feature sets of Table 3 (BLAST), in the paper's order.
BLAST_TOP10: Tuple[Tuple[str, ...], ...] = (
    ("CF-IBF", "RACCB", "JS", "RS"),
    ("CF-IBF", "RACCB", "JS", "NRS"),
    ("CF-IBF", "RACCB", "JS", "WJS"),
    ("CF-IBF", "RACCB", "RS", "NRS"),
    ("CF-IBF", "RACCB", "RS", "WJS"),
    ("CF-IBF", "RACCB", "NRS", "WJS"),
    ("CF-IBF", "JS", "RS", "WJS"),
    ("CF-IBF", "JS", "NRS", "WJS"),
    ("CF-IBF", "RS", "NRS", "WJS"),
    ("CF-IBF", "RACCB", "JS", "RS", "NRS", "WJS"),
)

#: The ten feature sets of Table 4 (RCNP), in the paper's order.
RCNP_TOP10: Tuple[Tuple[str, ...], ...] = (
    ("CF-IBF", "RACCB", "JS", "LCP", "RS"),
    ("CF-IBF", "RACCB", "JS", "LCP", "WJS"),
    ("CF-IBF", "RACCB", "LCP", "RS", "NRS"),
    ("CF-IBF", "JS", "LCP", "RS", "NRS"),
    ("CF-IBF", "RACCB", "JS", "LCP", "RS", "NRS"),
    ("CF-IBF", "RACCB", "JS", "LCP", "RS", "WJS"),
    ("CF-IBF", "RACCB", "JS", "LCP", "NRS", "WJS"),
    ("CF-IBF", "RACCB", "LCP", "RS", "NRS", "WJS"),
    ("CF-IBF", "JS", "LCP", "RS", "NRS", "WJS"),
    ("CF-IBF", "RACCB", "JS", "LCP", "RS", "NRS", "WJS"),
)


@dataclass
class FeatureRuntimeRow:
    """Measured run-time of one feature set on one dataset."""

    dataset: str
    feature_set: Tuple[str, ...]
    feature_seconds: float
    scoring_seconds: float

    @property
    def total_seconds(self) -> float:
        """Feature generation plus scoring time (the quantity Figures 7/9 plot)."""
        return self.feature_seconds + self.scoring_seconds

    def as_row(self) -> Dict[str, object]:
        """Flatten for table rendering."""
        return {
            "dataset": self.dataset,
            "feature_set": "{" + ", ".join(self.feature_set) + "}",
            "feature_seconds": self.feature_seconds,
            "scoring_seconds": self.scoring_seconds,
            "total_seconds": self.total_seconds,
        }


def measure_feature_set_runtime(
    feature_set: Sequence[str],
    dataset: PreparedDataset,
    config: ExperimentConfig,
) -> FeatureRuntimeRow:
    """Time feature generation + probability scoring for one feature set."""
    stats = dataset.statistics()
    generator = FeatureVectorGenerator(feature_set)

    start = time.perf_counter()
    matrix = generator.generate(dataset.candidates, stats)
    feature_seconds = time.perf_counter() - start

    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set,
        pruning="BCl",
        training_size=config.training_size,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )
    result = pipeline.run(
        dataset.blocks,
        dataset.candidates,
        dataset.ground_truth,
        stats=stats,
        feature_matrix=matrix,
    )
    scoring_seconds = result.timer.get("scoring") + result.timer.get("training")
    return FeatureRuntimeRow(
        dataset=dataset.name,
        feature_set=tuple(feature_set),
        feature_seconds=feature_seconds,
        scoring_seconds=scoring_seconds,
    )


def run_feature_runtime(
    feature_sets: Sequence[Sequence[str]],
    config: Optional[ExperimentConfig] = None,
    dataset_names: Sequence[str] = ("Movies", "WalmartAmazon"),
) -> List[FeatureRuntimeRow]:
    """Measure the run-time of several feature sets on the largest datasets."""
    config = config or ExperimentConfig()
    rows: List[FeatureRuntimeRow] = []
    for name in dataset_names:
        dataset = prepare_benchmark_dataset(name, seed=config.seed, scale=config.scale)
        for feature_set in feature_sets:
            rows.append(measure_feature_set_runtime(feature_set, dataset, config))
    return rows


def run_figure7(config: Optional[ExperimentConfig] = None, **kwargs) -> List[FeatureRuntimeRow]:
    """Figure 7: run-times of BLAST's top-10 feature sets."""
    return run_feature_runtime(BLAST_TOP10, config, **kwargs)


def run_figure9(config: Optional[ExperimentConfig] = None, **kwargs) -> List[FeatureRuntimeRow]:
    """Figure 9: run-times of RCNP's top-10 feature sets."""
    return run_feature_runtime(RCNP_TOP10, config, **kwargs)


def format_feature_runtime(rows: Sequence[FeatureRuntimeRow], title: str) -> str:
    """Render the measured run-times (the data behind Figures 7/9)."""
    return format_table(
        [row.as_row() for row in rows],
        columns=[
            "dataset",
            "feature_set",
            "feature_seconds",
            "scoring_seconds",
            "total_seconds",
        ],
        title=title,
    )


def lcp_free_sets_are_faster(rows: Sequence[FeatureRuntimeRow]) -> bool:
    """Check the paper's headline claim: LCP-free feature sets run faster.

    Compares the mean total run-time of the sets containing LCP with the mean
    of those without it; returns ``True`` when the LCP-free sets are faster on
    average (the reason BLAST's Formula 1 halves the run-time of [21]).
    """
    with_lcp = [row.total_seconds for row in rows if "LCP" in row.feature_set]
    without_lcp = [row.total_seconds for row in rows if "LCP" not in row.feature_set]
    if not with_lcp or not without_lcp:
        return True
    return float(np.mean(without_lcp)) < float(np.mean(with_lcp))
