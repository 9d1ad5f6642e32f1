"""Shared infrastructure for the experiment modules.

Every experiment module regenerates one table or figure of the paper.  They
all need the same ingredients: benchmark datasets prepared through the
paper's blocking pipeline, the standard algorithm configurations (BLAST,
RCNP, and the Supervised Meta-blocking baselines BCl/CNP with the original
feature set), and multi-run averaging.  This module centralises those pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..blocking.candidate_extraction import prepare_blocks
from ..core.feature_selection import PreparedDataset
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..datasets.benchmarks import load_benchmark
from ..datasets.dirty import load_dirty_dataset
from ..datasets.registry import CLEAN_CLEAN_ORDER, DIRTY_ORDER, FAST_DATASET_SUBSET
from ..ml.logistic_regression import LogisticRegression
from ..ml.svm import LinearSVC
from ..utils.rng import SeedLike
from ..weights.registry import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET


@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment modules.

    Parameters
    ----------
    dataset_names:
        The Clean-Clean benchmarks to include (paper order by default).
    repetitions:
        Runs per configuration, each with a fresh training sample (the paper
        uses 10; the default here is 3 to keep the full suite fast).
    training_size:
        Labelled instances for the balanced policy.
    seed:
        Master seed for dataset generation and sampling.
    scale:
        Optional override of the dataset generation scale.
    classifier:
        ``"logistic"`` (default) or ``"svm"`` — the paper reports both give
        nearly identical results.
    """

    dataset_names: Sequence[str] = field(
        default_factory=lambda: tuple(CLEAN_CLEAN_ORDER)
    )
    repetitions: int = 3
    training_size: int = 500
    seed: SeedLike = 0
    scale: Optional[float] = None
    classifier: str = "logistic"

    def classifier_factory(self) -> Callable:
        """Return the classifier factory matching the configuration."""
        if self.classifier == "logistic":
            return LogisticRegression
        if self.classifier == "svm":
            return lambda: LinearSVC(random_state=0)
        raise ValueError(f"unknown classifier {self.classifier!r}")

    @classmethod
    def fast(cls, **overrides) -> "ExperimentConfig":
        """A configuration sized for quick smoke runs and CI benches."""
        defaults = dict(
            dataset_names=FAST_DATASET_SUBSET,
            repetitions=2,
            training_size=50,
            seed=0,
        )
        defaults.update(overrides)
        return cls(**defaults)


def prepare_benchmark_dataset(
    name: str,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> PreparedDataset:
    """Generate one Clean-Clean benchmark and run the blocking pipeline on it."""
    dataset = load_benchmark(name, seed=seed, scale=scale)
    prepared = prepare_blocks(dataset.first, dataset.second)
    return PreparedDataset(
        name=name,
        blocks=prepared.blocks,
        candidates=prepared.candidates,
        ground_truth=dataset.ground_truth,
        csr=prepared.csr,
    )


def prepare_benchmark_datasets(config: ExperimentConfig) -> List[PreparedDataset]:
    """Prepare every benchmark named in the configuration."""
    return [
        prepare_benchmark_dataset(name, seed=config.seed, scale=config.scale)
        for name in config.dataset_names
    ]


def prepare_dirty_dataset(
    name: str,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> PreparedDataset:
    """Generate one Dirty ER dataset and run Token Blocking + cleaning on it."""
    dataset = load_dirty_dataset(name, seed=seed, scale=scale)
    prepared = prepare_blocks(dataset.collection, None)
    return PreparedDataset(
        name=name,
        blocks=prepared.blocks,
        candidates=prepared.candidates,
        ground_truth=dataset.ground_truth,
        csr=prepared.csr,
    )


def prepare_dirty_datasets(
    names: Sequence[str] = DIRTY_ORDER,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> List[PreparedDataset]:
    """Prepare the D10K–D300K series (scaled) for the scalability experiments."""
    return [prepare_dirty_dataset(name, seed=seed, scale=scale) for name in names]


# -- standard algorithm configurations -----------------------------------------------

def blast_pipeline(config: ExperimentConfig, training_size: Optional[int] = None) -> GeneralizedSupervisedMetaBlocking:
    """BLAST with the Formula 1 feature set {CF-IBF, RACCB, RS, NRS}."""
    return GeneralizedSupervisedMetaBlocking(
        feature_set=BLAST_FEATURE_SET,
        pruning="BLAST",
        training_size=training_size or config.training_size,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )


def rcnp_pipeline(config: ExperimentConfig, training_size: Optional[int] = None) -> GeneralizedSupervisedMetaBlocking:
    """RCNP with the Formula 2 feature set {CF-IBF, RACCB, JS, LCP, WJS}."""
    return GeneralizedSupervisedMetaBlocking(
        feature_set=RCNP_FEATURE_SET,
        pruning="RCNP",
        training_size=training_size or config.training_size,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )


def bcl_pipeline(
    config: ExperimentConfig,
    feature_set: Sequence[str] = ORIGINAL_FEATURE_SET,
    training_size: Optional[int] = None,
    training_policy: str = "balanced",
) -> GeneralizedSupervisedMetaBlocking:
    """BCl — the Supervised Meta-blocking [21] baseline (binary classifier)."""
    return GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set,
        pruning="BCl",
        training_size=training_size or config.training_size,
        training_policy=training_policy,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )


def cnp_pipeline(
    config: ExperimentConfig,
    feature_set: Sequence[str] = ORIGINAL_FEATURE_SET,
    training_size: Optional[int] = None,
    training_policy: str = "balanced",
) -> GeneralizedSupervisedMetaBlocking:
    """CNP with the original [21] feature set — the cardinality baseline."""
    return GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set,
        pruning="CNP",
        training_size=training_size or config.training_size,
        training_policy=training_policy,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )


def algorithm_pipeline(
    name: str,
    config: ExperimentConfig,
    feature_set: Optional[Sequence[str]] = None,
    training_size: Optional[int] = None,
) -> GeneralizedSupervisedMetaBlocking:
    """Build a pipeline for any pruning algorithm with a given feature set."""
    return GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set or ORIGINAL_FEATURE_SET,
        pruning=name,
        training_size=training_size or config.training_size,
        classifier_factory=config.classifier_factory(),
        seed=config.seed,
    )
