"""Weighting schemes (paper Section 4).

Every scheme maps a candidate pair to a score proportional to its matching
likelihood, using only block co-occurrence statistics.  The original
Supervised Meta-blocking feature set [21] comprises CF-IBF, RACCB, JS and LCP
(the latter contributing two features, one per constituent entity); the paper
adds EJS, WJS, RS and NRS as new features.

All schemes implement :class:`WeightingScheme`; pair-level schemes produce a
single feature column, entity-level schemes (LCP) produce two.

Every scheme carries two implementations of the same formula:

* :meth:`WeightingScheme.compute_sparse` — what the library runs, combining
  the batched co-occurrence aggregates of
  :meth:`repro.weights.statistics.BlockStatistics.pair_cooccurrence` with
  per-entity arrays in plain NumPy arithmetic (entity-level log factors
  once per entity; CBS / RACCB / RS are read-only views of the cache);
* :meth:`WeightingScheme.compute` — the readable per-pair reference.  Nothing
  in the library calls it; the equivalence tests do, and assert both produce
  ``np.allclose``-identical matrices.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
import numpy as np

from ..datamodel.candidates import CandidateSet
from .sparse import entity_log_ratios
from .statistics import BlockStatistics


class WeightingScheme(ABC):
    """A schema-agnostic weighting scheme over candidate pairs."""

    #: short identifier used in feature-set descriptions (e.g. "CF-IBF")
    name: str = "scheme"
    #: number of feature columns the scheme contributes (LCP contributes 2)
    width: int = 1

    @abstractmethod
    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        """Return an ``(n_pairs, width)`` array of feature values."""

    @abstractmethod
    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        """Vectorized counterpart of :meth:`compute` (same shape and values)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


def _safe_log_ratio(total: float, value: float) -> float:
    """``log(total / value)`` guarded against zero/degenerate denominators."""
    if value <= 0.0 or total <= 0.0:
        return 0.0
    ratio = total / value
    if ratio <= 1.0:
        return 0.0
    return math.log(ratio)


def _jaccard_column(shared, per_entity, candidates: CandidateSet, common) -> np.ndarray:
    """``shared / (x_i + x_j - shared)`` as a column — JS, WJS and NRS — and 0
    where no block is shared or the union is not positive: one masked divide."""
    union = per_entity[candidates.left] + per_entity[candidates.right] - shared
    defined = (common > 0) & (union > 0)
    return np.divide(shared, union, out=np.zeros(shared.shape), where=defined).reshape(-1, 1)


class CommonBlocksScheme(WeightingScheme):
    """CBS — the raw number of blocks shared by the pair, ``|B_i ∩ B_j|``.

    Not part of the paper's candidate feature sets but the simplest
    co-occurrence weight and the classic unsupervised baseline, so it is
    exposed for the unsupervised meta-blocking module and ablations.
    """

    name = "CBS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            values[position, 0] = stats.common_block_count(int(i), int(j))
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        return stats.pair_cooccurrence(candidates).common.reshape(-1, 1)


class CFIBFScheme(WeightingScheme):
    """CF-IBF — Co-occurrence Frequency–Inverse Block Frequency.

    ``|B_i ∩ B_j| · log(|B|/|B_i|) · log(|B|/|B_j|)``: high when the entities
    co-occur often yet each participates in few blocks (TF-IDF analogy).
    """

    name = "CF-IBF"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        total_blocks = float(stats.num_blocks)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            i, j = int(i), int(j)
            common = stats.common_block_count(i, j)
            if common == 0:
                continue
            ibf_i = _safe_log_ratio(total_blocks, stats.blocks_per_entity[i])
            ibf_j = _safe_log_ratio(total_blocks, stats.blocks_per_entity[j])
            values[position, 0] = common * ibf_i * ibf_j
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        common = stats.pair_cooccurrence(candidates).common
        ibf_left, ibf_right = entity_log_ratios(
            float(stats.num_blocks), stats.blocks_per_entity, candidates.left, candidates.right
        )
        return (common * ibf_left * ibf_right).reshape(-1, 1)


class RACCBScheme(WeightingScheme):
    """RACCB — Reciprocal Aggregate Cardinality of Common Blocks.

    ``Σ_{b ∈ B_i ∩ B_j} 1/||b||``: small shared blocks carry distinctive
    information, so each contributes the inverse of its comparison count.
    Also known as ARCS in the meta-blocking literature.
    """

    name = "RACCB"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            common = stats.common_blocks(int(i), int(j))
            values[position, 0] = stats.sum_inverse_cardinality(common)
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        aggregates = stats.pair_cooccurrence(candidates)
        return aggregates.sum_inverse_cardinality.reshape(-1, 1)


class JaccardScheme(WeightingScheme):
    """JS — the Jaccard coefficient of the two entities' block sets.

    ``|B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|)``.
    """

    name = "JS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            i, j = int(i), int(j)
            common = stats.common_block_count(i, j)
            if common == 0:
                continue
            union = stats.blocks_per_entity[i] + stats.blocks_per_entity[j] - common
            if union > 0:
                values[position, 0] = common / union
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        common = stats.pair_cooccurrence(candidates).common
        return _jaccard_column(common, stats.blocks_per_entity, candidates, common)


class EnhancedJaccardScheme(WeightingScheme):
    """EJS — Jaccard enhanced with the inverse frequency of each entity's candidates.

    ``JS(c_ij) · log(||B||/||e_i||) · log(||B||/||e_j||)`` where ``||e_i||``
    is the summed cardinality of the blocks of ``e_i``.
    """

    name = "EJS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        jaccard = JaccardScheme().compute(candidates, stats)[:, 0]
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        total = stats.total_cardinality
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            if jaccard[position] == 0.0:
                continue
            i, j = int(i), int(j)
            factor_i = _safe_log_ratio(total, stats.entity_cardinality[i])
            factor_j = _safe_log_ratio(total, stats.entity_cardinality[j])
            values[position, 0] = jaccard[position] * factor_i * factor_j
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        jaccard = JaccardScheme().compute_sparse(candidates, stats)[:, 0]
        factor_left, factor_right = entity_log_ratios(
            stats.total_cardinality, stats.entity_cardinality, candidates.left, candidates.right
        )
        return (jaccard * factor_left * factor_right).reshape(-1, 1)


class WeightedJaccardScheme(WeightingScheme):
    """WJS — Jaccard over blocks weighted by their inverse comparison count.

    ``Σ_{b∈B_i∩B_j} 1/||b|| / (Σ_{b∈B_i} 1/||b|| + Σ_{b∈B_j} 1/||b|| - Σ_{b∈B_i∩B_j} 1/||b||)``
    — a normalised form of RACCB.
    """

    name = "WJS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            i, j = int(i), int(j)
            common = stats.common_blocks(i, j)
            if not common:
                continue
            shared = stats.sum_inverse_cardinality(common)
            denominator = (
                stats.entity_inv_cardinality[i]
                + stats.entity_inv_cardinality[j]
                - shared
            )
            if denominator > 0:
                values[position, 0] = shared / denominator
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        aggregates = stats.pair_cooccurrence(candidates)
        shared = aggregates.sum_inverse_cardinality
        return _jaccard_column(shared, stats.entity_inv_cardinality, candidates, aggregates.common)


class ReciprocalSizesScheme(WeightingScheme):
    """RS — like RACCB but over entity counts instead of comparison counts.

    ``Σ_{b ∈ B_i ∩ B_j} 1/|b|``.
    """

    name = "RS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            common = stats.common_blocks(int(i), int(j))
            values[position, 0] = stats.sum_inverse_size(common)
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        return stats.pair_cooccurrence(candidates).sum_inverse_size.reshape(-1, 1)


class NormalizedReciprocalSizesScheme(WeightingScheme):
    """NRS — RS normalised by the union of inverse block sizes.

    ``Σ_{b∈B_i∩B_j} 1/|b| / (Σ_{b∈B_i} 1/|b| + Σ_{b∈B_j} 1/|b| - Σ_{b∈B_i∩B_j} 1/|b|)``.
    """

    name = "NRS"

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        values = np.zeros((len(candidates), 1), dtype=np.float64)
        for position, (i, j) in enumerate(zip(candidates.left, candidates.right)):
            i, j = int(i), int(j)
            common = stats.common_blocks(i, j)
            if not common:
                continue
            shared = stats.sum_inverse_size(common)
            denominator = (
                stats.entity_inv_size[i] + stats.entity_inv_size[j] - shared
            )
            if denominator > 0:
                values[position, 0] = shared / denominator
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        aggregates = stats.pair_cooccurrence(candidates)
        shared = aggregates.sum_inverse_size
        return _jaccard_column(shared, stats.entity_inv_size, candidates, aggregates.common)


class LocalCandidatesScheme(WeightingScheme):
    """LCP — the number of distinct candidates of each constituent entity.

    Entity-level feature: contributes two columns, ``LCP(e_i)`` and
    ``LCP(e_j)``.  The fewer candidates an entity has, the more likely it is
    to match one of them.  Its computation iterates over every block of every
    entity, which is why feature sets avoiding it (BLAST's Formula 1) are
    substantially faster.
    """

    name = "LCP"
    width = 2

    def compute(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        counts = stats.local_candidate_counts()
        values = np.zeros((len(candidates), 2), dtype=np.float64)
        values[:, 0] = counts[candidates.left]
        values[:, 1] = counts[candidates.right]
        return values

    def compute_sparse(self, candidates: CandidateSet, stats: BlockStatistics) -> np.ndarray:
        counts = stats.local_candidate_counts_sparse()
        values = np.empty((len(candidates), 2), dtype=np.float64, order="F")
        values[:, 0] = counts[candidates.left]
        values[:, 1] = counts[candidates.right]
        return values
