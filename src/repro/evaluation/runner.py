"""Multi-run experiment execution.

The paper averages every measurement over several repetitions (10 for the
main study, 3 for the scalability analysis), each drawing a different random
training sample.  :class:`ExperimentRunner` is that loop, the one every
experiment sweep runs through: it runs a configured pipeline ``repetitions``
times with seeds derived from a master seed, over a :class:`PreparedDataset`
— the :class:`~repro.blocking.PreparedBlocks` that ``prepare_blocks``
returned, with its ground truth.  Every run reads its statistics from
:meth:`PreparedBlocks.statistics`, so the CSR, the candidate pairs (hence
LCP) and their co-occurrence aggregates computed by the preparation are
handed over, and no run recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..blocking.arrayops import PreparedBlocks
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..datamodel.ground_truth import GroundTruth
from ..utils.rng import SeedLike, spawn_seeds
from .metrics import EffectivenessReport, average_reports, evaluate_retained_mask


@dataclass
class PreparedDataset:
    """A dataset prepared once for repeated pipeline runs."""

    name: str
    #: what ``prepare_blocks`` returned: blocks, candidates and their statistics
    prepared: PreparedBlocks
    ground_truth: GroundTruth


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
        pipeline: GeneralizedSupervisedMetaBlocking,
        dataset: PreparedDataset,
        label: Optional[str] = None,
    ) -> RunOutcome:
        """Run ``pipeline`` on one prepared dataset and average the outcomes."""
        prepared = dataset.prepared
        seeds = spawn_seeds(self.seed, self.repetitions)
        reports: List[EffectivenessReport] = []
        runtimes: List[float] = []
        for run_seed in seeds:
            result = pipeline.run(
                prepared.blocks,
                prepared.candidates,
                dataset.ground_truth,
                stats=prepared.statistics(),
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
        pipelines: Dict[str, GeneralizedSupervisedMetaBlocking],
        datasets: Sequence[PreparedDataset],
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
