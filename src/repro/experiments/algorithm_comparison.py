"""Experiment E6 — Figures 8 and 10 (Generalized vs original Supervised Meta-blocking).

Figure 8 compares the effectiveness of the selected Generalized Supervised
Meta-blocking algorithms (BLAST with Formula 1, RCNP with Formula 2) against
the Supervised Meta-blocking baselines of [21] (BCl and CNP with the original
feature set), all trained on 500 balanced labelled instances.  Figure 10
compares their run-times on the two largest datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..evaluation.reporting import format_measure_series, format_table
from ..evaluation.runner import ExperimentRunner, RunOutcome, average_over_datasets
from ..evaluation.metrics import EffectivenessReport
from .common import (
    ExperimentConfig,
    bcl_pipeline,
    blast_pipeline,
    cnp_pipeline,
    prepare_benchmark_dataset,
    prepare_benchmark_datasets,
    rcnp_pipeline,
)


@dataclass
class AlgorithmComparisonResult:
    """Averages and per-dataset outcomes of the Figure 8 comparison."""

    averages: Dict[str, EffectivenessReport]
    outcomes: List[RunOutcome]

    def series(self) -> Dict[str, Dict[str, float]]:
        """The {algorithm: {measure: value}} series Figure 8 plots."""
        return {
            algorithm: {
                "recall": report.recall,
                "precision": report.precision,
                "f1": report.f1,
            }
            for algorithm, report in self.averages.items()
        }


def comparison_pipelines(config: ExperimentConfig) -> Dict[str, object]:
    """The four configurations Figure 8 compares."""
    return {
        "BCl": bcl_pipeline(config),
        "BLAST": blast_pipeline(config),
        "CNP": cnp_pipeline(config),
        "RCNP": rcnp_pipeline(config),
    }


def run_figure8(config: Optional[ExperimentConfig] = None) -> AlgorithmComparisonResult:
    """Figure 8: average effectiveness of BCl/BLAST/CNP/RCNP over all datasets."""
    config = config or ExperimentConfig()
    datasets = prepare_benchmark_datasets(config)
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(comparison_pipelines(config), datasets)
    return AlgorithmComparisonResult(
        averages=average_over_datasets(outcomes), outcomes=outcomes
    )


def run_figure10(
    config: Optional[ExperimentConfig] = None,
    dataset_names: Sequence[str] = ("Movies", "WalmartAmazon"),
) -> List[Dict[str, object]]:
    """Figure 10: run-times of the four algorithms on the largest datasets."""
    config = config or ExperimentConfig()
    runner = ExperimentRunner(repetitions=max(1, config.repetitions // 2), seed=config.seed)
    rows: List[Dict[str, object]] = []
    for name in dataset_names:
        dataset = prepare_benchmark_dataset(name, seed=config.seed, scale=config.scale)
        for label, pipeline in comparison_pipelines(config).items():
            outcome = runner.run_pipeline(pipeline, dataset, label=label)
            rows.append(
                {
                    "dataset": name,
                    "algorithm": label,
                    "runtime_seconds": outcome.runtime_seconds,
                }
            )
    return rows


def format_figure8(result: AlgorithmComparisonResult) -> str:
    """Render the averaged series underlying Figure 8."""
    return format_measure_series(
        result.series(),
        title="Figure 8 — Supervised (BCl, CNP) vs Generalized Supervised (BLAST, RCNP)",
    )


def format_figure10(rows: Sequence[Dict[str, object]]) -> str:
    """Render the run-time comparison underlying Figure 10."""
    return format_table(
        rows,
        columns=["dataset", "algorithm", "runtime_seconds"],
        title="Figure 10 — run-time of the best algorithms on the largest datasets",
    )


def paper_figure8_reference() -> Dict[str, Dict[str, float]]:
    """Approximate averages read off Figure 8."""
    return {
        "BCl": {"recall": 0.87, "precision": 0.17, "f1": 0.26},
        "BLAST": {"recall": 0.88, "precision": 0.19, "f1": 0.29},
        "CNP": {"recall": 0.89, "precision": 0.18, "f1": 0.265},
        "RCNP": {"recall": 0.85, "precision": 0.25, "f1": 0.35},
    }
