"""Delta feature generation for streaming inserts.

The weighting schemes (paper Section 4) are pure functions of block
co-occurrence statistics.  :class:`DeltaFeatureGenerator` evaluates them over
an arbitrary subset of candidate pairs — typically the delta introduced by
one insert — against the *current* state of anything with the read surface
of an :class:`~repro.incremental.IndexState`: a live
:class:`MutableBlockIndex`, or a :class:`~repro.incremental.MergedIndexView`
over shards or bare states.  The scheme implementations are reused
unchanged: an :class:`~repro.incremental.IndexStatistics` *is* a
:class:`repro.weights.BlockStatistics`, the exact read building it from its
cleaned live rows as batch preparation does from its filtered matrix.

A delta names its pairs: the writer's insert-time read
(:meth:`MutableBlockIndex.insert_statistics`) sums the per-entity aggregates
over their endpoints' rows and
:func:`repro.weights.sparse.compute_pair_cooccurrence` intersects those rows
— work proportional to the memberships of the entities involved, not to the
collection.  The exact answer is every live pair of the collection read under
the model's block cleaning, so ``generate_all`` cleans the live CSR and
derives pairs and aggregates together in one reduce pass, as block
preparation does.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..blocking.cleaning import NO_CLEANING, BlockCleaning
from ..core.features import FeatureMatrix, FeatureVectorGenerator
from ..datamodel.candidates import CandidateSet
from ..obs.trace import hook_span
from ..weights.registry import BLAST_FEATURE_SET
from .index import InsertDelta, MutableBlockIndex
from .state import IndexStatistics, LiveCandidates


class DeltaFeatureGenerator:
    """Generate feature vectors against a streaming index's current state.

    Parameters
    ----------
    index:
        The index, merged view or state the statistics are read from.
    feature_set:
        Weighting-scheme names forming the feature vector (default: the
        BLAST-optimal Formula 1 set).
    """

    def __init__(
        self,
        index: MutableBlockIndex,
        feature_set: Sequence[str] = BLAST_FEATURE_SET,
    ) -> None:
        self.index = index
        self._generator = FeatureVectorGenerator(feature_set)

    @property
    def feature_set(self) -> Tuple[str, ...]:
        """The configured weighting-scheme names."""
        return self._generator.feature_set

    @property
    def columns(self) -> Tuple[str, ...]:
        """Column labels of the matrices this generator produces."""
        return self._generator.columns

    def generate(
        self, candidates: CandidateSet, statistics: Optional[IndexStatistics] = None
    ) -> FeatureMatrix:
        """Feature matrix of ``candidates`` at the index's current state.

        Unless a statistics view is handed in, the writer's insert-time read
        of ``candidates`` is taken per call, so the matrix always reflects
        the raw block collection as of the latest mutation.
        """
        if statistics is None:
            statistics = self.index.insert_statistics(candidates)
        matrix = self._generator.generate(candidates, statistics)
        self._orient_entity_columns(matrix, candidates)
        return matrix

    def _orient_entity_columns(
        self, matrix: FeatureMatrix, candidates: CandidateSet
    ) -> None:
        """Align per-side feature columns with the batch orientation.

        Batch candidate pairs are canonical by node id, which in a batch
        index space puts the first-collection entity on the left — so entity
        -level schemes (LCP) emit their ``e_i`` column for the first side.
        Streaming node ids follow arrival order, so a pair's left entity may
        belong to the second collection; swap those rows of every width-2
        scheme to keep the feature layout the frozen classifier was trained
        on.
        """
        if not self.index.bilateral or len(candidates) == 0:
            return
        swap = self.index.sides()[candidates.left] == 1
        if not np.any(swap):
            return
        column = 0
        for scheme in self._generator.schemes:
            if scheme.width == 2:
                first, second = matrix.values[:, column], matrix.values[:, column + 1]
                first[swap], second[swap] = second[swap], first[swap]
            column += scheme.width

    def generate_delta(self, delta: InsertDelta) -> FeatureMatrix:
        """Feature matrix of the pairs introduced by one insert."""
        return self.generate(self.index.delta_candidate_set(delta))

    def generate_all(
        self, cleaning: BlockCleaning = NO_CLEANING
    ) -> Tuple[LiveCandidates, FeatureMatrix, IndexStatistics]:
        """Every *live* pair of the collection read under ``cleaning``, its
        features and the statistics they were computed from (the exact
        finalisation).

        Pairs and co-occurrence aggregates are derived together from the CSR
        rows of the live nodes (a removed entity's row is skipped by its side
        flag), cleaned, in the batch pipeline's candidate order.
        """
        with hook_span("merge-pairs"):
            statistics = self.index.statistics(cleaning)
            candidates = statistics.live_candidates()
        with hook_span("features"):
            matrix = self.generate(candidates, statistics)
        return candidates, matrix, statistics
