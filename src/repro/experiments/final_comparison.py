"""Experiment E9/E10 — Tables 5 and 7 (per-dataset final comparison).

Table 5 compares, per dataset, the final weight-based algorithms:

* BLAST — Formula 1 features, 50 balanced labelled instances;
* BCl1 — same 50 instances and the *new* feature set (ablation of the
  training-set size rule);
* BCl2 — the original Supervised Meta-blocking configuration of [21]
  (features {CF-IBF, RACCB, JS, LCP}, training set = 5 % of the positive
  ground-truth pairs plus as many negatives).

Table 7 is the cardinality-based counterpart with RCNP, CNP1 and CNP2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..evaluation.reporting import format_table
from ..evaluation.runner import ExperimentRunner, RunOutcome
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from .common import (
    STANDARD_FEATURES,
    ExperimentConfig,
    algorithm_pipeline,
    prepare_dataset,
)


def final_pipelines(
    config: ExperimentConfig, algorithm: str, baseline: str
) -> Dict[str, GeneralizedSupervisedMetaBlocking]:
    """``algorithm`` with its feature set and 50 labels, ``baseline`` with the
    same set and labels (``<baseline>1``) and with the [21] settings
    (``<baseline>2``): the three configurations of Table 5 or Table 7."""
    features = STANDARD_FEATURES[algorithm]
    return {
        algorithm: algorithm_pipeline(algorithm, config, training_size=50),
        f"{baseline}1": algorithm_pipeline(baseline, config, features, training_size=50),
        f"{baseline}2": algorithm_pipeline(baseline, config, training_policy="proportional"),
    }


@dataclass
class FinalComparisonResult:
    """Per-dataset outcomes for one of the two tables."""

    table: str
    outcomes: List[RunOutcome]

    def rows(self) -> List[Dict[str, object]]:
        """One row per (dataset, algorithm) with Re/Pr/F1/RT."""
        return [outcome.as_row() for outcome in self.outcomes]

    def by_algorithm(self) -> Dict[str, List[RunOutcome]]:
        """Group the outcomes per algorithm (column blocks of the tables)."""
        grouped: Dict[str, List[RunOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.algorithm, []).append(outcome)
        return grouped


#: each table's algorithm and baseline
FINAL_COMPARISONS = {"Table 5": ("BLAST", "BCl"), "Table 7": ("RCNP", "CNP")}


def run_final_comparison(
    table: str, config: Optional[ExperimentConfig] = None
) -> FinalComparisonResult:
    """Table 5 (BLAST vs BCl1 vs BCl2) or Table 7 (RCNP vs CNP1 vs CNP2), per dataset."""
    config = config or ExperimentConfig()
    datasets = [prepare_dataset(name, seed=config.seed) for name in config.dataset_names]
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(final_pipelines(config, *FINAL_COMPARISONS[table]), datasets)
    return FinalComparisonResult(table=table, outcomes=outcomes)


def format_final_comparison(result: FinalComparisonResult) -> str:
    """Render the per-dataset rows of Table 5 or Table 7."""
    return format_table(
        result.rows(),
        columns=["dataset", "algorithm", "recall", "precision", "f1", "runtime_seconds"],
        title=f"{result.table} — per-dataset comparison",
    )
