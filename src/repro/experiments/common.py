"""Shared infrastructure for the experiment modules.

Every experiment module regenerates one table or figure of the paper.  They
all need the same ingredients: benchmark datasets prepared through the
paper's blocking pipeline, the standard algorithm configurations (BLAST,
RCNP, and the Supervised Meta-blocking baselines BCl/CNP with the original
feature set), and multi-run averaging.  This module centralises those pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..blocking.candidate_extraction import prepare_blocks
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..datasets.benchmarks import load_benchmark
from ..datasets.dirty import load_dirty_dataset
from ..datasets.registry import CLEAN_CLEAN_ORDER, DIRTY_ORDER, FAST_DATASET_SUBSET
from ..evaluation.runner import PreparedDataset
from ..utils.rng import SeedLike
from ..weights.registry import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET


@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment modules.

    Every run trains logistic regression (the paper reports that a linear
    SVM gives nearly identical results; ``classifier_factory=`` on the
    pipeline selects another classifier).

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
    max_set_size:
        Optional cap on the size of the feature sets the Tables 3/4 search
        scores; ``None`` scores all 255 sets, as the paper does.
    """

    dataset_names: Sequence[str] = field(
        default_factory=lambda: tuple(CLEAN_CLEAN_ORDER)
    )
    repetitions: int = 3
    training_size: int = 500
    seed: SeedLike = 0
    max_set_size: Optional[int] = None

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


def prepare_dataset(
    name: str,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> PreparedDataset:
    """Generate one dataset — a Dirty ER one (D10K–D300K) or a Clean-Clean
    benchmark, by its name — and run the paper's block preparation on it."""
    if name in DIRTY_ORDER:
        dirty = load_dirty_dataset(name, seed=seed, scale=scale)
        return PreparedDataset(name, prepare_blocks(dirty.collection), dirty.ground_truth)
    dataset = load_benchmark(name, seed=seed, scale=scale)
    return PreparedDataset(
        name, prepare_blocks(dataset.first, dataset.second), dataset.ground_truth
    )


# -- standard algorithm configurations -----------------------------------------------

#: each algorithm's standard feature set: Formula 1 {CF-IBF, RACCB, RS, NRS} for
#: BLAST, Formula 2 {CF-IBF, RACCB, JS, LCP, WJS} for RCNP, and the original
#: [21] set for the rest (BCl and CNP are the Supervised Meta-blocking baselines)
STANDARD_FEATURES = {"BLAST": BLAST_FEATURE_SET, "RCNP": RCNP_FEATURE_SET}


def algorithm_pipeline(
    name: str,
    config: ExperimentConfig,
    feature_set: Optional[Sequence[str]] = None,
    training_size: Optional[int] = None,
    training_policy: str = "balanced",
) -> GeneralizedSupervisedMetaBlocking:
    """A pipeline for any pruning algorithm: its standard feature set unless
    ``feature_set`` names another, with the configuration's training size and
    seed."""
    # the [21] baseline's proportional sample has no size: it reads none
    size = {} if training_policy == "proportional" else {
        "training_size": training_size or config.training_size
    }
    return GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set or STANDARD_FEATURES.get(name, ORIGINAL_FEATURE_SET),
        pruning=name,
        training_policy=training_policy,
        seed=config.seed,
        **size,
    )
