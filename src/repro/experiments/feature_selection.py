"""Experiment E4 — Tables 3 and 4 (feature-set selection for BLAST and RCNP).

Runs the exhaustive search over the 255 combinations of the eight weighting
schemes (or a configurable subset for smoke runs) and reports the top-10
feature sets by F1 for each of the two selected pruning algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.feature_selection import enumerate_feature_sets
from ..evaluation.metrics import average_reports
from ..evaluation.reporting import format_table
from ..evaluation.runner import ExperimentRunner
from ..weights.registry import PAPER_FEATURES
from .common import ExperimentConfig, algorithm_pipeline, prepare_dataset


@dataclass
class FeatureSelectionResult:
    """Top feature sets for one pruning algorithm."""

    algorithm: str
    #: one row per feature set in the layout of Tables 3/4 (id, feature set,
    #: Re, Pr, F1, RT averaged over the datasets), best first
    top_sets: List[Dict[str, object]]


def run_feature_selection(
    algorithm: str,
    config: Optional[ExperimentConfig] = None,
    features: Sequence[str] = PAPER_FEATURES,
    top_k: int = 10,
) -> FeatureSelectionResult:
    """Run the exhaustive feature-set search for ``algorithm`` ("BLAST"/"RCNP").

    Each combination runs through the :class:`ExperimentRunner` on every
    dataset; the combinations are ranked by average F1, ties broken by lower
    run-time and then by id, reproducing the paper's two-step selection
    (effectiveness first, efficiency second).

    Parameters
    ----------
    algorithm:
        The pruning algorithm under study.
    config:
        Experiment configuration (datasets, repetitions, training size, and
        ``max_set_size``: the cap on combination size; ``None`` evaluates all
        2^n - 1 combinations as the paper does, which is expensive — smoke
        runs and the benches cap it).
    features:
        The feature pool (the paper's eight schemes by default).
    top_k:
        How many top sets to report (the paper lists 10).
    """
    config = config or ExperimentConfig()
    datasets = [prepare_dataset(name, seed=config.seed) for name in config.dataset_names]
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    rows = []
    for candidate in enumerate_feature_sets(features):
        if config.max_set_size is not None and len(candidate.features) > config.max_set_size:
            continue
        pipeline = algorithm_pipeline(algorithm, config, candidate.features)
        outcomes = [runner.run_pipeline(pipeline, dataset) for dataset in datasets]
        report = average_reports([outcome.report for outcome in outcomes])
        rows.append(
            {
                "id": candidate.set_id,
                "feature_set": candidate.label(),
                "recall": report.recall,
                "precision": report.precision,
                "f1": report.f1,
                "runtime_seconds": float(
                    np.mean([outcome.runtime_seconds for outcome in outcomes])
                ),
            }
        )
    rows.sort(key=lambda row: (-row["f1"], row["runtime_seconds"], row["id"]))
    return FeatureSelectionResult(algorithm=algorithm, top_sets=rows[:top_k])


def format_feature_selection(result: FeatureSelectionResult) -> str:
    """Render the top feature sets in the layout of Tables 3/4."""
    return format_table(
        result.top_sets,
        columns=["id", "feature_set", "recall", "precision", "f1", "runtime_seconds"],
        title=f"Top feature sets for {result.algorithm} (Tables 3/4 layout)",
    )
