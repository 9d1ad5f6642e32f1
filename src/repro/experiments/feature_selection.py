"""Experiment E4 — Tables 3 and 4 (feature-set selection for BLAST and RCNP).

Runs the exhaustive search over the 255 combinations of the eight weighting
schemes (or a configurable subset for smoke runs) and reports the top-10
feature sets by F1 for each of the two selected pruning algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.feature_selection import (
    FeatureSelectionStudy,
    FeatureSetScore,
    enumerate_feature_sets,
)
from ..evaluation.reporting import format_table
from ..weights.registry import PAPER_FEATURES
from .common import ExperimentConfig, prepare_benchmark_datasets


@dataclass
class FeatureSelectionResult:
    """Top feature sets for one pruning algorithm."""

    algorithm: str
    top_sets: List[FeatureSetScore]

    def rows(self) -> List[Dict[str, object]]:
        """Rows in the layout of Tables 3/4."""
        return [score.as_row() for score in self.top_sets]


def run_feature_selection(
    algorithm: str,
    config: Optional[ExperimentConfig] = None,
    features: Sequence[str] = PAPER_FEATURES,
    max_set_size: Optional[int] = None,
    top_k: int = 10,
) -> FeatureSelectionResult:
    """Run the exhaustive feature-set search for ``algorithm`` ("BLAST"/"RCNP").

    Parameters
    ----------
    algorithm:
        The pruning algorithm under study.
    config:
        Experiment configuration (datasets, repetitions, training size).
    features:
        The feature pool (the paper's eight schemes by default).
    max_set_size:
        Optional cap on combination size; ``None`` evaluates all 2^n - 1
        combinations as the paper does, which is expensive — smoke runs and
        the benches cap it.
    top_k:
        How many top sets to report (the paper lists 10).
    """
    config = config or ExperimentConfig()
    datasets = prepare_benchmark_datasets(config)
    study = FeatureSelectionStudy(
        datasets=datasets,
        pruning=algorithm,
        training_size=config.training_size,
        repetitions=config.repetitions,
        seed=config.seed,
        classifier_factory=config.classifier_factory(),
    )
    candidates = enumerate_feature_sets(features)
    if max_set_size is not None:
        candidates = [c for c in candidates if len(c.features) <= max_set_size]
    top_sets = study.run(candidates, top_k=top_k)
    return FeatureSelectionResult(algorithm=algorithm, top_sets=top_sets)


def run_table3(config: Optional[ExperimentConfig] = None, **kwargs) -> FeatureSelectionResult:
    """Table 3: top-10 feature sets for BLAST."""
    return run_feature_selection("BLAST", config, **kwargs)


def format_feature_selection(result: FeatureSelectionResult) -> str:
    """Render the top feature sets in the layout of Tables 3/4."""
    return format_table(
        result.rows(),
        columns=["id", "feature_set", "recall", "precision", "f1", "runtime_seconds"],
        title=f"Top feature sets for {result.algorithm} (Tables 3/4 layout)",
    )


def paper_table3_reference() -> Dict[str, float]:
    """The paper's Table 3 headline: BLAST's top-10 sets all score alike."""
    return {"recall": 0.8816, "precision": 0.1932, "f1": 0.2892}


def paper_table4_reference() -> Dict[str, float]:
    """The paper's Table 4 headline: RCNP's top-10 sets all score alike."""
    return {"recall": 0.850, "precision": 0.248, "f1": 0.353}
