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
from ..weights.registry import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from .common import ExperimentConfig, prepare_benchmark_datasets


def table5_pipelines(config: ExperimentConfig) -> Dict[str, GeneralizedSupervisedMetaBlocking]:
    """The three weight-based configurations of Table 5."""
    factory = config.classifier_factory()
    return {
        "BLAST": GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET,
            pruning="BLAST",
            training_size=50,
            classifier_factory=factory,
            seed=config.seed,
        ),
        "BCl1": GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET,
            pruning="BCl",
            training_size=50,
            classifier_factory=factory,
            seed=config.seed,
        ),
        "BCl2": GeneralizedSupervisedMetaBlocking(
            feature_set=ORIGINAL_FEATURE_SET,
            pruning="BCl",
            training_policy="proportional",
            classifier_factory=factory,
            seed=config.seed,
        ),
    }


def table7_pipelines(config: ExperimentConfig) -> Dict[str, GeneralizedSupervisedMetaBlocking]:
    """The three cardinality-based configurations of Table 7."""
    factory = config.classifier_factory()
    return {
        "RCNP": GeneralizedSupervisedMetaBlocking(
            feature_set=RCNP_FEATURE_SET,
            pruning="RCNP",
            training_size=50,
            classifier_factory=factory,
            seed=config.seed,
        ),
        "CNP1": GeneralizedSupervisedMetaBlocking(
            feature_set=RCNP_FEATURE_SET,
            pruning="CNP",
            training_size=50,
            classifier_factory=factory,
            seed=config.seed,
        ),
        "CNP2": GeneralizedSupervisedMetaBlocking(
            feature_set=ORIGINAL_FEATURE_SET,
            pruning="CNP",
            training_policy="proportional",
            classifier_factory=factory,
            seed=config.seed,
        ),
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


def run_table5(config: Optional[ExperimentConfig] = None) -> FinalComparisonResult:
    """Table 5: BLAST vs BCl1 vs BCl2, per dataset."""
    config = config or ExperimentConfig()
    datasets = prepare_benchmark_datasets(config)
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(table5_pipelines(config), datasets)
    return FinalComparisonResult(table="Table 5", outcomes=outcomes)


def run_table7(config: Optional[ExperimentConfig] = None) -> FinalComparisonResult:
    """Table 7: RCNP vs CNP1 vs CNP2, per dataset."""
    config = config or ExperimentConfig()
    datasets = prepare_benchmark_datasets(config)
    runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
    outcomes = runner.run_matrix(table7_pipelines(config), datasets)
    return FinalComparisonResult(table="Table 7", outcomes=outcomes)


def format_final_comparison(result: FinalComparisonResult) -> str:
    """Render the per-dataset rows of Table 5 or Table 7."""
    return format_table(
        result.rows(),
        columns=["dataset", "algorithm", "recall", "precision", "f1", "runtime_seconds"],
        title=f"{result.table} — per-dataset comparison",
    )


def paper_table5_reference() -> Dict[str, Dict[str, Dict[str, float]]]:
    """The paper's Table 5 (weight-based algorithms, per dataset)."""
    return {
        "BLAST": {
            "AbtBuy": {"recall": 0.8345, "precision": 0.2037, "f1": 0.3265},
            "DblpAcm": {"recall": 0.9511, "precision": 0.6509, "f1": 0.7690},
            "ScholarDblp": {"recall": 0.9638, "precision": 0.3418, "f1": 0.4988},
            "AmazonGP": {"recall": 0.7001, "precision": 0.1441, "f1": 0.2385},
            "ImdbTmdb": {"recall": 0.8223, "precision": 0.5756, "f1": 0.6726},
            "ImdbTvdb": {"recall": 0.7483, "precision": 0.2304, "f1": 0.3456},
            "TmdbTvdb": {"recall": 0.8466, "precision": 0.2477, "f1": 0.3770},
            "Movies": {"recall": 0.9151, "precision": 0.1300, "f1": 0.2221},
            "WalmartAmazon": {"recall": 0.9587, "precision": 0.0025, "f1": 0.0050},
        },
        "BCl1": {
            "AbtBuy": {"recall": 0.8345, "precision": 0.1821, "f1": 0.2981},
            "DblpAcm": {"recall": 0.9521, "precision": 0.5971, "f1": 0.7303},
            "ScholarDblp": {"recall": 0.9588, "precision": 0.3595, "f1": 0.5195},
            "AmazonGP": {"recall": 0.6265, "precision": 0.1607, "f1": 0.2572},
            "ImdbTmdb": {"recall": 0.7889, "precision": 0.6445, "f1": 0.7086},
            "ImdbTvdb": {"recall": 0.6966, "precision": 0.2616, "f1": 0.3785},
            "TmdbTvdb": {"recall": 0.6972, "precision": 0.3737, "f1": 0.4613},
            "Movies": {"recall": 0.9039, "precision": 0.0972, "f1": 0.1735},
            "WalmartAmazon": {"recall": 0.9500, "precision": 0.0020, "f1": 0.0041},
        },
        "BCl2": {
            "AbtBuy": {"recall": 0.8183, "precision": 0.2039, "f1": 0.3261},
            "DblpAcm": {"recall": 0.9513, "precision": 0.6130, "f1": 0.7425},
            "ScholarDblp": {"recall": 0.9303, "precision": 0.3921, "f1": 0.5401},
            "AmazonGP": {"recall": 0.7316, "precision": 0.1131, "f1": 0.1908},
            "ImdbTmdb": {"recall": 0.7872, "precision": 0.5969, "f1": 0.6604},
            "ImdbTvdb": {"recall": 0.7074, "precision": 0.2323, "f1": 0.3395},
            "TmdbTvdb": {"recall": 0.8172, "precision": 0.2312, "f1": 0.2991},
            "Movies": {"recall": 0.9100, "precision": 0.0239, "f1": 0.0465},
            "WalmartAmazon": {"recall": 0.5757, "precision": 0.0001, "f1": 0.0001},
        },
    }


def paper_table7_reference() -> Dict[str, Dict[str, Dict[str, float]]]:
    """The paper's Table 7 (cardinality-based algorithms, per dataset)."""
    return {
        "RCNP": {
            "AbtBuy": {"recall": 0.8405, "precision": 0.1764, "f1": 0.2914},
            "DblpAcm": {"recall": 0.9759, "precision": 0.6463, "f1": 0.7747},
            "ScholarDblp": {"recall": 0.9623, "precision": 0.3591, "f1": 0.5190},
            "AmazonGP": {"recall": 0.7358, "precision": 0.1264, "f1": 0.2148},
            "ImdbTmdb": {"recall": 0.8395, "precision": 0.3540, "f1": 0.4971},
            "ImdbTvdb": {"recall": 0.7465, "precision": 0.2325, "f1": 0.3498},
            "TmdbTvdb": {"recall": 0.8696, "precision": 0.1848, "f1": 0.2954},
            "Movies": {"recall": 0.9275, "precision": 0.0992, "f1": 0.1758},
            "WalmartAmazon": {"recall": 0.9122, "precision": 0.0050, "f1": 0.0100},
        },
        "CNP1": {
            "AbtBuy": {"recall": 0.8294, "precision": 0.1797, "f1": 0.2939},
            "DblpAcm": {"recall": 0.9613, "precision": 0.5984, "f1": 0.7355},
            "ScholarDblp": {"recall": 0.9218, "precision": 0.3745, "f1": 0.5095},
            "AmazonGP": {"recall": 0.7462, "precision": 0.1031, "f1": 0.1748},
            "ImdbTmdb": {"recall": 0.8045, "precision": 0.5471, "f1": 0.6394},
            "ImdbTvdb": {"recall": 0.7615, "precision": 0.1867, "f1": 0.2847},
            "TmdbTvdb": {"recall": 0.8641, "precision": 0.1720, "f1": 0.2487},
            "Movies": {"recall": 0.8200, "precision": 0.0090, "f1": 0.0177},
            "WalmartAmazon": {"recall": 0.7087, "precision": 0.0002, "f1": 0.0004},
        },
        "CNP2": {
            "AbtBuy": {"recall": 0.8347, "precision": 0.1895, "f1": 0.3081},
            "DblpAcm": {"recall": 0.9539, "precision": 0.6158, "f1": 0.7457},
            "ScholarDblp": {"recall": 0.9581, "precision": 0.2184, "f1": 0.3453},
            "AmazonGP": {"recall": 0.7742, "precision": 0.0848, "f1": 0.1514},
            "ImdbTmdb": {"recall": 0.8345, "precision": 0.4132, "f1": 0.5247},
            "ImdbTvdb": {"recall": 0.7641, "precision": 0.1764, "f1": 0.2754},
            "TmdbTvdb": {"recall": 0.8677, "precision": 0.1484, "f1": 0.2363},
            "Movies": {"recall": 0.9347, "precision": 0.0291, "f1": 0.0564},
            "WalmartAmazon": {"recall": 0.2332, "precision": 0.0001, "f1": 0.0002},
        },
    }
