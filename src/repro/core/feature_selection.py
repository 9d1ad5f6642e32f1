"""Exhaustive feature-set selection (paper Section 5.3).

The paper evaluates all 255 non-empty combinations of the eight weighting
schemes for the top-performing pruning algorithms (BLAST and RCNP), ranks
them by average F1 over the datasets and breaks ties by run-time.  This
module provides:

* :func:`enumerate_feature_sets` — the 255 combinations with stable ids;
* :func:`evaluate_feature_set` — effectiveness of one combination on one
  prepared dataset;
* :class:`FeatureSelectionStudy` — the full sweep producing the Table 3/4
  style ranking.

Note on ids: the paper numbers the combinations 1–255 but does not publish
the enumeration order; our ids enumerate subsets by increasing size and
lexicographic order over the canonical feature order (CF-IBF, RACCB, JS,
LCP, EJS, WJS, RS, NRS), so id values differ from the paper while the sets
themselves are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..datamodel.ground_truth import GroundTruth
from ..evaluation.metrics import EffectivenessReport, average_reports, evaluate_retained_mask
from ..utils.rng import SeedLike, spawn_seeds
from ..weights.registry import PAPER_FEATURES, all_feature_subsets
from ..weights.statistics import BlockStatistics
from ..weights.sparse import EntityBlockCSR
from .pipeline import GeneralizedSupervisedMetaBlocking
from .pruning import SupervisedPruningAlgorithm


@dataclass(frozen=True)
class FeatureSetCandidate:
    """One feature combination with its stable identifier."""

    set_id: int
    features: Tuple[str, ...]

    def label(self) -> str:
        """Human-readable label, e.g. ``"{CF-IBF, RACCB, RS, NRS}"``."""
        return "{" + ", ".join(self.features) + "}"


def enumerate_feature_sets(
    features: Sequence[str] = PAPER_FEATURES,
) -> List[FeatureSetCandidate]:
    """Enumerate every non-empty combination of ``features`` with stable ids."""
    return [
        FeatureSetCandidate(set_id=index + 1, features=subset)
        for index, subset in enumerate(all_feature_subsets(features))
    ]


@dataclass
class FeatureSetScore:
    """Aggregated performance of one feature set across datasets and runs."""

    candidate: FeatureSetCandidate
    recall: float
    precision: float
    f1: float
    runtime_seconds: float

    def as_row(self) -> Dict[str, Union[int, str, float]]:
        """Row representation used by the Table 3/4 reports."""
        return {
            "id": self.candidate.set_id,
            "feature_set": self.candidate.label(),
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "runtime_seconds": self.runtime_seconds,
        }


@dataclass
class PreparedDataset:
    """A dataset prepared for repeated pipeline runs (blocks + truth)."""

    name: str
    blocks: BlockCollection
    candidates: CandidateSet
    ground_truth: GroundTruth
    stats: Optional[BlockStatistics] = None
    #: optional prebuilt entity x block CSR of ``blocks`` (block
    #: preparation's handoff), inherited by the statistics built here
    csr: Optional["EntityBlockCSR"] = None

    def statistics(self) -> BlockStatistics:
        """Return (and cache) the block statistics, reusing a prepared CSR."""
        if self.stats is None:
            self.stats = BlockStatistics(self.blocks, csr=self.csr)
        return self.stats


def evaluate_feature_set(
    features: Sequence[str],
    dataset: PreparedDataset,
    pruning: Union[str, SupervisedPruningAlgorithm],
    training_size: int = 500,
    repetitions: int = 3,
    seed: SeedLike = 0,
    classifier_factory=None,
) -> Tuple[EffectivenessReport, float]:
    """Average effectiveness and run-time of one feature set on one dataset."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=features,
        pruning=pruning,
        training_size=training_size,
        classifier_factory=classifier_factory,
        seed=seed,
    )
    seeds = spawn_seeds(seed, repetitions)
    reports = []
    runtime = 0.0
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
        runtime += result.runtime_seconds
    return average_reports(reports), runtime / repetitions


class FeatureSelectionStudy:
    """Sweep feature combinations for one pruning algorithm over datasets.

    Parameters
    ----------
    datasets:
        The prepared datasets the combinations are averaged over.
    pruning:
        The pruning algorithm under study (name or instance).
    training_size, repetitions, seed, classifier_factory:
        Forwarded to :func:`evaluate_feature_set`.
    """

    def __init__(
        self,
        datasets: Sequence[PreparedDataset],
        pruning: Union[str, SupervisedPruningAlgorithm],
        training_size: int = 500,
        repetitions: int = 1,
        seed: SeedLike = 0,
        classifier_factory=None,
    ) -> None:
        if not datasets:
            raise ValueError("at least one dataset is required")
        self.datasets = list(datasets)
        self.pruning = pruning
        self.training_size = training_size
        self.repetitions = repetitions
        self.seed = seed
        self.classifier_factory = classifier_factory

    def score_feature_set(self, candidate: FeatureSetCandidate) -> FeatureSetScore:
        """Average one combination's performance over all datasets."""
        reports = []
        runtimes = []
        for dataset in self.datasets:
            report, runtime = evaluate_feature_set(
                candidate.features,
                dataset,
                self.pruning,
                training_size=self.training_size,
                repetitions=self.repetitions,
                seed=self.seed,
                classifier_factory=self.classifier_factory,
            )
            reports.append(report)
            runtimes.append(runtime)
        averaged = average_reports(reports)
        return FeatureSetScore(
            candidate=candidate,
            recall=averaged.recall,
            precision=averaged.precision,
            f1=averaged.f1,
            runtime_seconds=float(np.mean(runtimes)),
        )

    def run(
        self,
        feature_sets: Optional[Sequence[FeatureSetCandidate]] = None,
        top_k: int = 10,
    ) -> List[FeatureSetScore]:
        """Score the given (or all 255) combinations and return the top ``top_k`` by F1.

        Ties in F1 are broken by lower run-time, reproducing the paper's
        two-step selection (effectiveness first, efficiency second).
        """
        candidates = (
            list(feature_sets) if feature_sets is not None else enumerate_feature_sets()
        )
        scores = [self.score_feature_set(candidate) for candidate in candidates]
        scores.sort(key=lambda score: (-score.f1, score.runtime_seconds, score.candidate.set_id))
        return scores[:top_k]
