"""Experiment E7 — Figures 11, 13 and 14 (effect of the training-set size).

Sweeps the number of labelled instances (20, then 50..500 in steps of 50 by
default) for BLAST (Figure 11), RCNP (Figure 14) and the BCl baseline
(Figure 13 compares BCl with BLAST), reporting the average recall, precision
and F1 across the benchmark datasets for every size.

The paper's headline finding — recall creeps up while precision and F1 drop
as the training set grows, so 50 labelled instances suffice — is exposed as
:func:`small_training_set_suffices` for the tests and benches to assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.reporting import format_table
from ..evaluation.runner import ExperimentRunner, average_over_datasets
from ..evaluation.metrics import EffectivenessReport
from ..weights.registry import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET
from .common import ExperimentConfig, algorithm_pipeline, prepare_benchmark_datasets

#: The training-set sizes swept by the paper.
PAPER_TRAINING_SIZES: Tuple[int, ...] = (20, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500)

#: A shorter sweep for smoke runs and benches.
FAST_TRAINING_SIZES: Tuple[int, ...] = (20, 50, 200, 500)

#: The feature set each algorithm uses in this experiment.
_ALGORITHM_FEATURES = {
    "BLAST": BLAST_FEATURE_SET,
    "RCNP": RCNP_FEATURE_SET,
    "BCl": BLAST_FEATURE_SET,  # Figure 13 compares BCl1 (new features) with BLAST
    "BCl-original": ORIGINAL_FEATURE_SET,
}


@dataclass
class TrainingSizePoint:
    """Averaged measures for one (algorithm, training size) combination."""

    algorithm: str
    training_size: int
    report: EffectivenessReport

    def as_row(self) -> Dict[str, object]:
        """Flatten for table rendering."""
        return {
            "algorithm": self.algorithm,
            "training_size": self.training_size,
            "recall": self.report.recall,
            "precision": self.report.precision,
            "f1": self.report.f1,
        }


def run_training_size_sweep(
    algorithm: str,
    config: Optional[ExperimentConfig] = None,
    sizes: Sequence[int] = FAST_TRAINING_SIZES,
) -> List[TrainingSizePoint]:
    """Sweep the training-set size for one algorithm."""
    config = config or ExperimentConfig()
    feature_set = _ALGORITHM_FEATURES.get(algorithm, ORIGINAL_FEATURE_SET)
    datasets = prepare_benchmark_datasets(config)
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    points: List[TrainingSizePoint] = []
    for size in sizes:
        pipeline = algorithm_pipeline(
            algorithm.replace("-original", ""),
            config,
            feature_set=feature_set,
            training_size=size,
        )
        outcomes = [runner.run_pipeline(pipeline, dataset) for dataset in datasets]
        averaged = average_over_datasets(outcomes)
        points.append(
            TrainingSizePoint(
                algorithm=algorithm,
                training_size=size,
                report=next(iter(averaged.values())),
            )
        )
    return points


def run_figure11(config: Optional[ExperimentConfig] = None, sizes: Sequence[int] = FAST_TRAINING_SIZES) -> List[TrainingSizePoint]:
    """Figure 11: training-size sweep for BLAST."""
    return run_training_size_sweep("BLAST", config, sizes)


def run_figure14(config: Optional[ExperimentConfig] = None, sizes: Sequence[int] = FAST_TRAINING_SIZES) -> List[TrainingSizePoint]:
    """Figure 14: training-size sweep for RCNP."""
    return run_training_size_sweep("RCNP", config, sizes)


def run_figure13(
    config: Optional[ExperimentConfig] = None, sizes: Sequence[int] = FAST_TRAINING_SIZES
) -> Dict[str, List[TrainingSizePoint]]:
    """Figure 13: recall/precision of BCl and BLAST as the training set grows."""
    return {
        "BCl": run_training_size_sweep("BCl", config, sizes),
        "BLAST": run_training_size_sweep("BLAST", config, sizes),
    }


def format_training_size(points: Sequence[TrainingSizePoint], title: str) -> str:
    """Render the sweep points (the series Figures 11/13/14 plot)."""
    return format_table(
        [point.as_row() for point in points],
        columns=["algorithm", "training_size", "recall", "precision", "f1"],
        title=title,
    )


def small_training_set_suffices(
    points: Sequence[TrainingSizePoint],
    small: int = 50,
    tolerance: float = 0.05,
) -> bool:
    """Check the paper's conclusion that ~50 labelled instances are enough.

    True when the smallest-but-one size (default 50) reaches an F1 within
    ``tolerance`` of — or above — the best F1 of the whole sweep.
    """
    by_size = {point.training_size: point.report.f1 for point in points}
    if small not in by_size:
        raise ValueError(f"size {small} missing from the sweep")
    best = max(by_size.values())
    return by_size[small] >= best - tolerance
