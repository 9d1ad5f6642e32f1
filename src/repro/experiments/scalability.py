"""Experiment E12 — Figures 17, 18 and Table 6 (scalability analysis).

Runs the four final algorithm configurations (BCl and CNP with the [21]
settings; BLAST and RCNP with the new feature sets and 50 labelled instances)
over the synthetic Dirty ER datasets D10K–D300K, with logistic regression as
the classifier, reporting:

* the effectiveness measures per dataset (Figure 17);
* the speedup relative to the smallest dataset (Figure 18);
* the fitted logistic-regression models of BLAST on D100K (Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..evaluation.reporting import format_table
from ..evaluation.runner import ExperimentRunner, RunOutcome
from ..ml.logistic_regression import LogisticRegression
from ..utils.timing import speedup as speedup_measure
from ..weights.registry import BLAST_FEATURE_SET
from ..datasets.registry import DIRTY_ORDER
from .common import ExperimentConfig, algorithm_pipeline, prepare_dataset


def scalability_pipelines(config: ExperimentConfig) -> Dict[str, GeneralizedSupervisedMetaBlocking]:
    """The four configurations of the scalability study: BLAST and RCNP with
    50 labels, BCl and CNP with the [21] settings."""
    return {
        "BLAST": algorithm_pipeline("BLAST", config, training_size=50),
        "BCl": algorithm_pipeline("BCl", config, training_policy="proportional"),
        "RCNP": algorithm_pipeline("RCNP", config, training_size=50),
        "CNP": algorithm_pipeline("CNP", config, training_policy="proportional"),
    }


@dataclass
class ScalabilityResult:
    """Per-dataset outcomes plus candidate-pair counts for the speedup measure."""

    outcomes: List[RunOutcome]
    candidate_counts: Dict[str, int]

    def rows(self) -> List[Dict[str, object]]:
        """One row per (dataset, algorithm) with Re/Pr/F1/RT (Figure 17 data)."""
        return [outcome.as_row() for outcome in self.outcomes]

    def speedups(self, baseline_dataset: Optional[str] = None) -> List[Dict[str, object]]:
        """The Figure 18 speedup series, relative to the smallest dataset."""
        by_algorithm: Dict[str, Dict[str, RunOutcome]] = {}
        for outcome in self.outcomes:
            by_algorithm.setdefault(outcome.algorithm, {})[outcome.dataset] = outcome

        datasets_in_order = [
            name for name in DIRTY_ORDER if name in self.candidate_counts
        ] or sorted(self.candidate_counts)
        baseline = baseline_dataset or datasets_in_order[0]

        rows: List[Dict[str, object]] = []
        for algorithm, per_dataset in by_algorithm.items():
            if baseline not in per_dataset:
                continue
            base_outcome = per_dataset[baseline]
            for dataset in datasets_in_order[1:]:
                if dataset not in per_dataset:
                    continue
                value = speedup_measure(
                    self.candidate_counts[baseline],
                    self.candidate_counts[dataset],
                    max(base_outcome.runtime_seconds, 1e-9),
                    max(per_dataset[dataset].runtime_seconds, 1e-9),
                )
                rows.append(
                    {"algorithm": algorithm, "dataset": dataset, "speedup": value}
                )
        return rows


def run_scalability(
    config: Optional[ExperimentConfig] = None,
    dataset_names: Sequence[str] = DIRTY_ORDER,
    scale: Optional[float] = None,
) -> ScalabilityResult:
    """Run the Figure 17/18 scalability study over the Dirty ER datasets."""
    config = config or ExperimentConfig(repetitions=3)
    datasets = [prepare_dataset(name, seed=config.seed, scale=scale) for name in dataset_names]
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(scalability_pipelines(config), datasets)
    candidate_counts = {dataset.name: len(dataset.prepared.candidates) for dataset in datasets}
    return ScalabilityResult(outcomes=outcomes, candidate_counts=candidate_counts)


@dataclass
class FittedModelSnapshot:
    """One fitted logistic-regression model (Table 6 row block)."""

    iteration: int
    coefficients: Dict[str, float]
    intercept: float
    retained_pairs: int
    detected_duplicates: int

    def as_row(self) -> Dict[str, object]:
        """Flatten for table rendering."""
        row: Dict[str, object] = {"iteration": self.iteration}
        row.update(self.coefficients)
        row["intercept"] = self.intercept
        row["retained_pairs"] = self.retained_pairs
        row["detected_duplicates"] = self.detected_duplicates
        return row


def run_table6(
    dataset_name: str = "D100K",
    iterations: int = 3,
    config: Optional[ExperimentConfig] = None,
    scale: Optional[float] = None,
) -> List[FittedModelSnapshot]:
    """Table 6: the logistic-regression models BLAST fits on D100K.

    Each iteration draws a different 25+25 training sample, so the fitted
    coefficients vary noticeably — the paper uses this to explain the variance
    of the scalability measurements.
    """
    config = config or ExperimentConfig()
    dataset = prepare_dataset(dataset_name, seed=config.seed, scale=scale)
    prepared = dataset.prepared
    stats = prepared.statistics()

    snapshots: List[FittedModelSnapshot] = []
    for iteration in range(iterations):
        classifier_holder: List[LogisticRegression] = []

        def factory() -> LogisticRegression:
            model = LogisticRegression()
            classifier_holder.append(model)
            return model

        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET,
            pruning="BLAST",
            training_size=50,
            classifier_factory=factory,
            seed=config.seed,
        )
        result = pipeline.run(
            prepared.blocks,
            prepared.candidates,
            dataset.ground_truth,
            stats=stats,
            seed=config.seed + iteration if isinstance(config.seed, int) else iteration,
        )
        model = classifier_holder[-1]
        columns = pipeline.feature_generator.columns
        coefficients = {
            column: float(value) for column, value in zip(columns, model.coef_)
        }
        detected = int(np.sum(result.retained_mask & result.labels.astype(bool)))
        snapshots.append(
            FittedModelSnapshot(
                iteration=iteration + 1,
                coefficients=coefficients,
                intercept=model.intercept_,
                retained_pairs=result.retained_count,
                detected_duplicates=detected,
            )
        )
    return snapshots


def format_scalability(result: ScalabilityResult) -> str:
    """Render the Figure 17 effectiveness rows."""
    return format_table(
        result.rows(),
        columns=["dataset", "algorithm", "recall", "precision", "f1", "runtime_seconds"],
        title="Figure 17 — scalability over the Dirty ER datasets",
    )


def format_speedups(result: ScalabilityResult) -> str:
    """Render the Figure 18 speedup rows."""
    return format_table(
        result.speedups(),
        columns=["algorithm", "dataset", "speedup"],
        title="Figure 18 — speedup relative to the smallest dataset",
    )


def format_table6(snapshots: Sequence[FittedModelSnapshot]) -> str:
    """Render the Table 6 fitted-model rows."""
    return format_table(
        [snapshot.as_row() for snapshot in snapshots],
        title="Table 6 — BLAST's logistic-regression models across iterations",
    )
