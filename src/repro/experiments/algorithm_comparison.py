"""Experiment E6 — Figures 8 and 10 (Generalized vs original Supervised Meta-blocking).

Figure 8 compares the effectiveness of the selected Generalized Supervised
Meta-blocking algorithms (BLAST with Formula 1, RCNP with Formula 2) against
the Supervised Meta-blocking baselines of [21] (BCl and CNP with the original
feature set), all trained on 500 balanced labelled instances: it runs as
:func:`~repro.experiments.pruning_selection.run_pruning_selection` with each
algorithm's standard feature set.  Figure 10 compares their run-times on the
two largest datasets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..evaluation.reporting import format_table
from ..evaluation.runner import ExperimentRunner
from .common import ExperimentConfig, algorithm_pipeline, prepare_dataset


#: the four algorithms Figures 8 and 10 compare, each with its standard feature set
COMPARED_ALGORITHMS = ("BCl", "BLAST", "CNP", "RCNP")


def comparison_pipelines(config: ExperimentConfig) -> Dict[str, object]:
    """The four configurations Figures 8 and 10 compare."""
    return {name: algorithm_pipeline(name, config) for name in COMPARED_ALGORITHMS}


def run_figure10(
    config: Optional[ExperimentConfig] = None,
    dataset_names: Sequence[str] = ("Movies", "WalmartAmazon"),
) -> List[Dict[str, object]]:
    """Figure 10: run-times of the four algorithms on the largest datasets."""
    config = config or ExperimentConfig()
    runner = ExperimentRunner(repetitions=max(1, config.repetitions // 2), seed=config.seed)
    rows: List[Dict[str, object]] = []
    for name in dataset_names:
        dataset = prepare_dataset(name, seed=config.seed)
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


def format_figure10(rows: Sequence[Dict[str, object]]) -> str:
    """Render the run-time comparison underlying Figure 10."""
    return format_table(
        rows,
        columns=["dataset", "algorithm", "runtime_seconds"],
        title="Figure 10 — run-time of the best algorithms on the largest datasets",
    )
