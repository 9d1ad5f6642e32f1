"""End-to-end Generalized Supervised Meta-blocking pipeline.

The pipeline chains the steps of paper Definition 2 on top of a prepared
block collection:

1. generate the feature vectors of every candidate pair (Section 4 schemes);
2. draw a small balanced training set and fit a probabilistic classifier;
3. score every candidate pair with its match probability;
4. apply a supervised pruning algorithm (Section 3) to the probabilities;
5. return the retained candidate pairs (the new block collection ``B'`` has
   one block per retained pair, so the candidate set *is* the result).

The run-time of the stages is recorded in a :class:`StageTimer`, mirroring
the paper's RT measure (feature generation + training + scoring + pruning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..blocking.candidate_extraction import prepare_blocks
from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..datamodel.entity import EntityCollection
from ..datamodel.ground_truth import GroundTruth
from ..ml.base import FrozenModel, ProbabilisticClassifier
from ..ml.logistic_regression import LogisticRegression
from ..ml.scaling import StandardScaler
from ..utils.rng import SeedLike, make_rng
from ..utils.timing import StageTimer
from ..weights.registry import BLAST_FEATURE_SET
from ..weights.statistics import BlockStatistics
from .features import FeatureMatrix, FeatureVectorGenerator
from .pruning import SupervisedPruningAlgorithm, get_pruning_algorithm
from .training import TrainingSet, build_training_set

ClassifierFactory = Callable[[], ProbabilisticClassifier]


@dataclass
class MetaBlockingResult:
    """Everything produced by one pipeline run."""

    #: boolean mask over the input candidate pairs (True = retained)
    retained_mask: np.ndarray
    #: the retained candidate pairs (the refined comparison set)
    retained: CandidateSet
    #: match probability of every input candidate pair
    probabilities: np.ndarray
    #: ground-truth label of every input candidate pair
    labels: np.ndarray
    #: the training set the classifier was fit on
    training_set: TrainingSet
    #: per-stage run-time accounting
    timer: StageTimer
    #: the full feature matrix (kept for inspection; may be large)
    feature_matrix: Optional[FeatureMatrix] = None
    #: the input candidate pairs
    candidates: Optional[CandidateSet] = None
    #: the fitted classifier (frozen-model source for streaming sessions)
    classifier: Optional[ProbabilisticClassifier] = None
    #: the scaler the classifier was trained behind (None when unscaled)
    scaler: Optional[StandardScaler] = None
    #: the weighting-scheme names the classifier was trained on
    feature_set: Tuple[str, ...] = ()

    @property
    def retained_count(self) -> int:
        """Number of retained candidate pairs."""
        return int(self.retained_mask.sum())

    @property
    def runtime_seconds(self) -> float:
        """Total run-time (RT) of the run."""
        return self.timer.total


class GeneralizedSupervisedMetaBlocking:
    """The paper's primary contribution as a configurable pipeline.

    Parameters
    ----------
    feature_set:
        Weighting-scheme names forming the feature vector (default: the
        BLAST-optimal Formula 1 set).
    pruning:
        A pruning-algorithm name (``"BLAST"``, ``"RCNP"``, ...) or instance.
    classifier_factory:
        Zero-argument callable returning a fresh probabilistic classifier for
        every run (default: :class:`LogisticRegression`).
    scale_features:
        Standardise features before training/scoring (recommended — the
        schemes have wildly different ranges).
    training_size:
        Number of labelled instances for the balanced sampling policy.
    training_policy:
        ``"balanced"`` (paper default) or ``"proportional"`` ([21] baseline).
    positive_fraction:
        Positive fraction for the proportional policy.
    seed:
        Master seed for training-set sampling.
    """

    def __init__(
        self,
        feature_set: Sequence[str] = BLAST_FEATURE_SET,
        pruning: Union[str, SupervisedPruningAlgorithm] = "BLAST",
        classifier_factory: Optional[ClassifierFactory] = None,
        scale_features: bool = True,
        training_size: int = 50,
        training_policy: str = "balanced",
        positive_fraction: float = 0.05,
        seed: SeedLike = 0,
    ) -> None:
        self.feature_generator = FeatureVectorGenerator(feature_set)
        self.pruning = (
            get_pruning_algorithm(pruning) if isinstance(pruning, str) else pruning
        )
        self.classifier_factory = classifier_factory or LogisticRegression
        self.scale_features = scale_features
        self.training_size = training_size
        self.training_policy = training_policy
        self.positive_fraction = positive_fraction
        self.seed = seed

    @property
    def feature_set(self) -> Sequence[str]:
        """The configured weighting-scheme names."""
        return self.feature_generator.feature_set

    # -- main entry points -----------------------------------------------------------
    def run(
        self,
        blocks: BlockCollection,
        candidates: CandidateSet,
        ground_truth: GroundTruth,
        stats: Optional[BlockStatistics] = None,
        feature_matrix: Optional[FeatureMatrix] = None,
        seed: SeedLike = None,
        keep_features: bool = False,
    ) -> MetaBlockingResult:
        """Run the pipeline on a prepared block collection.

        Parameters
        ----------
        blocks, candidates:
            The (purged/filtered) block collection and its distinct pairs.
        ground_truth:
            Known duplicates, used only to label the training sample and to
            report per-pair labels for evaluation.
        stats, feature_matrix:
            Optional precomputed statistics/features; passing them lets
            experiment sweeps amortise the feature-generation cost.
        seed:
            Per-run sampling seed (falls back to the pipeline seed).
        keep_features:
            Attach the full feature matrix to the result.
        """
        timer = StageTimer()
        statistics = stats if stats is not None else BlockStatistics(blocks)
        if feature_matrix is None:
            feature_matrix = self.feature_generator.generate(
                candidates, statistics, timer=timer
            )
        elif feature_matrix.n_pairs != len(candidates):
            raise ValueError("precomputed feature matrix does not match the candidates")

        labels = ground_truth.labels_for(candidates)

        with timer.stage("training"):
            training_set = build_training_set(
                feature_matrix,
                candidates,
                ground_truth,
                size=self.training_size,
                policy=self.training_policy,
                positive_fraction=self.positive_fraction,
                seed=self.seed if seed is None else seed,
                labels=labels,
            )
            classifier = self.classifier_factory()
            scaler = StandardScaler().fit(training_set.features) if self.scale_features else None
            model = FrozenModel(classifier, scaler, tuple(self.feature_set))
            classifier.fit(model.scaled(training_set.features), training_set.labels)

        with timer.stage("scoring"):
            probabilities = model.score(feature_matrix.values)

        with timer.stage("pruning"):
            retained_mask = self.pruning.prune(probabilities, candidates, blocks)

        retained = candidates.subset(retained_mask)
        return MetaBlockingResult(
            retained_mask=retained_mask,
            retained=retained,
            probabilities=probabilities,
            labels=labels,
            training_set=training_set,
            timer=timer,
            feature_matrix=feature_matrix if keep_features else None,
            candidates=candidates,
            classifier=classifier,
            scaler=scaler,
            feature_set=tuple(self.feature_set),
        )

    def run_on_collections(
        self,
        first: EntityCollection,
        second: Optional[EntityCollection],
        ground_truth: GroundTruth,
        seed: SeedLike = None,
        **prepare_kwargs,
    ) -> MetaBlockingResult:
        """Convenience wrapper: block preparation + pipeline in one call.

        Extra keyword arguments are forwarded to
        :func:`repro.blocking.prepare_blocks`.  The prepared CSR incidence
        structure is handed to feature generation (no rebuild), and the
        preparation's wall-clock is recorded as the ``"block-preparation"``
        stage of the result's timer — so RT no longer silently starts at
        feature generation.
        """
        prepared = prepare_blocks(first, second, **prepare_kwargs)
        result = self.run(
            prepared.blocks,
            prepared.candidates,
            ground_truth,
            stats=prepared.statistics(),
            seed=seed,
        )
        result.timer.add("block-preparation", prepared.timer.total)
        return result
