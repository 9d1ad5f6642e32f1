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
from .common import ExperimentConfig, algorithm_pipeline, prepare_benchmark_datasets


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
) -> PruningSelectionResult:
    """Run the Figure 5/6 comparison for the given algorithms.

    By default all weight- and cardinality-based algorithms are compared; pass
    ``WEIGHT_BASED_ALGORITHMS`` or ``CARDINALITY_BASED_ALGORITHMS`` to
    reproduce one figure at a time.
    """
    config = config or ExperimentConfig()
    names = list(algorithms) if algorithms is not None else (
        WEIGHT_BASED_ALGORITHMS + CARDINALITY_BASED_ALGORITHMS
    )
    datasets = prepare_benchmark_datasets(config)
    pipelines = {
        name: algorithm_pipeline(name, config, feature_set=ORIGINAL_FEATURE_SET)
        for name in names
    }
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(pipelines, datasets)
    return PruningSelectionResult(
        averages=average_over_datasets(outcomes), outcomes=outcomes
    )


def run_figure5(config: Optional[ExperimentConfig] = None) -> PruningSelectionResult:
    """Figure 5: the weight-based algorithms (plus the BCl baseline)."""
    return run_pruning_selection(config, WEIGHT_BASED_ALGORITHMS)


def run_figure6(config: Optional[ExperimentConfig] = None) -> PruningSelectionResult:
    """Figure 6: the cardinality-based algorithms."""
    return run_pruning_selection(config, CARDINALITY_BASED_ALGORITHMS)


def format_pruning_selection(result: PruningSelectionResult, title: str) -> str:
    """Render the averaged series in the layout underlying Figures 5/6."""
    return format_measure_series(result.series(), title=title)


def paper_figure5_reference() -> Dict[str, Dict[str, float]]:
    """Approximate averages read off Figure 5 (weight-based algorithms)."""
    return {
        "BCl": {"recall": 0.87, "precision": 0.155, "f1": 0.255},
        "WEP": {"recall": 0.82, "precision": 0.25, "f1": 0.366},
        "WNP": {"recall": 0.87, "precision": 0.20, "f1": 0.305},
        "RWNP": {"recall": 0.81, "precision": 0.26, "f1": 0.374},
        "BLAST": {"recall": 0.88, "precision": 0.19, "f1": 0.285},
    }


def paper_figure6_reference() -> Dict[str, Dict[str, float]]:
    """Approximate averages read off Figure 6 (cardinality-based algorithms)."""
    return {
        "CEP": {"recall": 0.86, "precision": 0.17, "f1": 0.26},
        "CNP": {"recall": 0.88, "precision": 0.18, "f1": 0.27},
        "RCNP": {"recall": 0.85, "precision": 0.245, "f1": 0.35},
    }
