"""Multi-run experiment execution.

The paper averages every measurement over several repetitions (10 for the
main study, 3 for the scalability analysis), each drawing a different random
training sample.  :class:`ExperimentRunner` wraps that loop: it prepares each
dataset once (blocking, purging, filtering, statistics, feature matrices can
all be cached by the caller) and runs a configured pipeline ``repetitions``
times with seeds derived from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..utils.rng import SeedLike, spawn_seeds
from .metrics import EffectivenessReport, average_reports, evaluate_retained_mask

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.core
    from ..core.feature_selection import PreparedDataset
    from ..core.pipeline import GeneralizedSupervisedMetaBlocking, MetaBlockingResult


@dataclass
class RunOutcome:
    """The averaged outcome of repeated pipeline runs on one dataset."""

    dataset: str
    algorithm: str
    report: EffectivenessReport
    runtime_seconds: float
    per_run_reports: List[EffectivenessReport] = field(default_factory=list)
    per_run_runtimes: List[float] = field(default_factory=list)

    def as_row(self) -> Dict[str, float]:
        """Flatten into a report row (dataset, algorithm, Re, Pr, F1, RT)."""
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "recall": self.report.recall,
            "precision": self.report.precision,
            "f1": self.report.f1,
            "runtime_seconds": self.runtime_seconds,
        }


class ExperimentRunner:
    """Run a pipeline configuration repeatedly over prepared datasets.

    Parameters
    ----------
    repetitions:
        Number of repetitions per dataset (each with a fresh training sample).
    seed:
        Master seed from which per-repetition seeds are derived.
    """

    def __init__(self, repetitions: int = 3, seed: SeedLike = 0) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        self.repetitions = repetitions
        self.seed = seed

    def run_pipeline(
        self,
        pipeline: "GeneralizedSupervisedMetaBlocking",
        dataset: "PreparedDataset",
        label: Optional[str] = None,
    ) -> RunOutcome:
        """Run ``pipeline`` on one prepared dataset and average the outcomes."""
        seeds = spawn_seeds(self.seed, self.repetitions)
        reports: List[EffectivenessReport] = []
        runtimes: List[float] = []
        for run_seed in seeds:
            result = pipeline.run(
                dataset.blocks,
                dataset.candidates,
                dataset.ground_truth,
                stats=dataset.statistics(),
                seed=run_seed,
            )
            reports.append(
                evaluate_retained_mask(
                    result.retained_mask, result.labels, len(dataset.ground_truth)
                )
            )
            runtimes.append(result.runtime_seconds)
        return RunOutcome(
            dataset=dataset.name,
            algorithm=label or pipeline.pruning.name,
            report=average_reports(reports),
            runtime_seconds=float(np.mean(runtimes)),
            per_run_reports=reports,
            per_run_runtimes=runtimes,
        )

    def run_matrix(
        self,
        pipelines: Dict[str, "GeneralizedSupervisedMetaBlocking"],
        datasets: Sequence["PreparedDataset"],
    ) -> List[RunOutcome]:
        """Run every (pipeline, dataset) combination and collect the outcomes."""
        outcomes: List[RunOutcome] = []
        for dataset in datasets:
            for label, pipeline in pipelines.items():
                outcomes.append(self.run_pipeline(pipeline, dataset, label=label))
        return outcomes


def average_over_datasets(outcomes: Sequence[RunOutcome]) -> Dict[str, EffectivenessReport]:
    """Average outcomes per algorithm across datasets (paper-style averages)."""
    grouped: Dict[str, List[EffectivenessReport]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.algorithm, []).append(outcome.report)
    return {
        algorithm: average_reports(reports) for algorithm, reports in grouped.items()
    }
