"""Experiment E2/E3 — Figures 5 and 6 (pruning-algorithm selection).

Compares, with the original [21] feature set and 500 balanced labelled
instances, the weight-based algorithms (BCl, WEP, WNP, RWNP, BLAST — Figure 5)
and the cardinality-based algorithms (CEP, CNP, RCNP — Figure 6), reporting
the average recall, precision and F1 over the benchmark datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.pruning import CARDINALITY_BASED_ALGORITHMS, WEIGHT_BASED_ALGORITHMS
from ..evaluation.reporting import format_measure_series
from ..evaluation.runner import ExperimentRunner, RunOutcome, average_over_datasets
from ..evaluation.metrics import EffectivenessReport
from ..weights.registry import ORIGINAL_FEATURE_SET
from .common import ExperimentConfig, algorithm_pipeline, prepare_dataset


@dataclass
class PruningSelectionResult:
    """Averaged measures per algorithm, plus the per-dataset outcomes."""

    averages: Dict[str, EffectivenessReport]
    outcomes: List[RunOutcome]

    def series(self) -> Dict[str, Dict[str, float]]:
        """The {algorithm: {measure: value}} series the figures plot."""
        return {
            algorithm: {
                "recall": report.recall,
                "precision": report.precision,
                "f1": report.f1,
            }
            for algorithm, report in self.averages.items()
        }


def run_pruning_selection(
    config: Optional[ExperimentConfig] = None,
    algorithms: Optional[Sequence[str]] = None,
    feature_set: Optional[Sequence[str]] = ORIGINAL_FEATURE_SET,
) -> PruningSelectionResult:
    """Run the Figure 5/6 comparison for the given algorithms.

    By default all weight- and cardinality-based algorithms are compared; pass
    ``WEIGHT_BASED_ALGORITHMS`` or ``CARDINALITY_BASED_ALGORITHMS`` to
    reproduce one figure at a time.  Every algorithm runs ``feature_set``;
    ``None`` gives each its standard set, which is Figure 8's comparison of
    BLAST / RCNP (Formulas 1 / 2) with BCl / CNP (the [21] set).
    """
    config = config or ExperimentConfig()
    names = list(algorithms) if algorithms is not None else (
        WEIGHT_BASED_ALGORITHMS + CARDINALITY_BASED_ALGORITHMS
    )
    datasets = [prepare_dataset(name, seed=config.seed) for name in config.dataset_names]
    pipelines = {
        name: algorithm_pipeline(name, config, feature_set=feature_set)
        for name in names
    }
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(pipelines, datasets)
    return PruningSelectionResult(
        averages=average_over_datasets(outcomes), outcomes=outcomes
    )


def format_pruning_selection(result: PruningSelectionResult, title: str) -> str:
    """Render the averaged series in the layout underlying Figures 5, 6 and 8."""
    return format_measure_series(result.series(), title=title)
