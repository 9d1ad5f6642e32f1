"""Block co-occurrence statistics.

All weighting schemes of the paper (Section 4) are functions of the block
co-occurrence patterns of a candidate pair:

* ``B_i`` — the set of blocks containing entity ``e_i``;
* ``|b|`` — the number of entities in block ``b``;
* ``||b||`` — the number of comparisons block ``b`` spawns;
* ``||B||`` — the total number of comparisons in the collection;
* ``||e_i||`` — the summed cardinality of the blocks of ``e_i``.

:class:`BlockStatistics` precomputes these quantities once per block
collection so that feature generation touches only per-pair set
intersections, the irreducible part of the cost.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

import numpy as np

from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..pairs import pair_expansion_plan
from .sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    PairCooccurrenceCache,
    build_entity_block_csr,
    entity_sums,
    inverse_block_weights,
    reduce_memberships,
    transposed_memberships,
)


class BlockStatistics:
    """Precomputed per-entity and per-block statistics of a block collection.

    Parameters
    ----------
    blocks:
        The (purged/filtered) block collection the candidate pairs come from.
    csr:
        Optional prebuilt entity x block CSR incidence structure of
        ``blocks`` (block preparation hands it over through
        :meth:`repro.blocking.PreparedBlocks.statistics`), so it is never
        rebuilt.  Built from the block objects when omitted.
    candidates:
        Optional distinct candidate pairs of ``blocks`` (same hand-off):
        LCP is the degree of a node in that pair set, so holding it makes
        :meth:`local_candidate_counts_sparse` two ``np.bincount`` calls.
        Derived from the blocks on first use when omitted.
    """

    def __init__(
        self,
        blocks: BlockCollection,
        csr: Optional[EntityBlockCSR] = None,
        candidates: Optional[CandidateSet] = None,
    ) -> None:
        self.blocks = blocks
        self.num_blocks = len(blocks)
        total_nodes = blocks.index_space.total
        if csr is None:
            csr = build_entity_block_csr(blocks)
        elif csr.num_blocks != len(blocks) or csr.num_entities != total_nodes:
            raise ValueError(
                "precomputed CSR does not match the block collection "
                f"({csr.num_entities} x {csr.num_blocks} vs "
                f"{total_nodes} x {len(blocks)})"
            )
        if candidates is not None and candidates.index_space.total != total_nodes:
            raise ValueError(
                "candidate set does not match the block collection "
                f"({candidates.index_space.total} vs {total_nodes} nodes)"
            )

        # per-block quantities (array-native: a prepared collection answers
        # these from its membership matrix, no Block object is built)
        self.block_sizes = np.asarray(blocks.block_sizes(), dtype=np.float64)
        self.block_cardinalities = np.asarray(blocks.block_cardinalities(), dtype=np.float64)
        self.total_cardinality = float(self.block_cardinalities.sum())
        # per-block inverse weights shared by both scheme implementations (the
        # max(..., 1) guard mirrors sum_inverse_cardinality/sum_inverse_size)
        self.inverse_block_cardinalities = inverse_block_weights(self.block_cardinalities)
        self.inverse_block_sizes = inverse_block_weights(self.block_sizes)
        #: source side per node id (1: second collection) — what makes the
        #: co-occurrence kernel's expansion first x second
        self.sides = (
            np.arange(total_nodes) >= blocks.index_space.size_first
        ).astype(np.int8)

        # per-entity aggregates straight from the CSR rows, each row's terms
        # added in ascending block id, the order the pair kernel uses
        (
            self.blocks_per_entity,
            self.entity_cardinality,
            self.entity_inv_cardinality,
            self.entity_inv_size,
        ) = entity_sums(
            np.repeat(np.arange(total_nodes, dtype=np.int64), np.diff(csr.indptr)),
            csr.indices,
            (
                self.block_cardinalities,
                self.inverse_block_cardinalities,
                self.inverse_block_sizes,
            ),
            total_nodes,
        )

        self._csr = csr
        self._candidates = candidates
        self._entity_blocks: Optional[Dict[int, FrozenSet[int]]] = None
        self._lcp: Optional[np.ndarray] = None
        self._lcp_sparse: Optional[np.ndarray] = None
        self._pair_cache = PairCooccurrenceCache()

    # -- vectorized kernels ----------------------------------------------------
    def csr(self) -> EntityBlockCSR:
        """The entity x block incidence structure."""
        return self._csr

    def pair_cooccurrence(self, candidates: CandidateSet) -> PairCooccurrence:
        """Batched co-occurrence aggregates for every pair of ``candidates``.

        The result is cached per candidate set (weakly referenced), so all
        schemes of one feature-matrix generation — and repeated generations
        over the same candidates, as in the feature-selection sweeps — share
        a single intersection pass.
        """
        return self._pair_cache.get(
            candidates,
            self._csr,
            self.inverse_block_cardinalities,
            self.inverse_block_sizes,
            self.sides,
        )

    # -- seeding ----------------------------------------------------------------
    def seed_pair_cooccurrence(
        self, candidates: CandidateSet, aggregates: PairCooccurrence
    ) -> None:
        """Install externally computed per-pair aggregates for ``candidates``.

        Used by :meth:`repro.blocking.PreparedBlocks.statistics` (the
        aggregates block preparation reduced from its one expansion);
        subsequent scheme computations over the same candidate-set object
        read the cache.
        """
        self._pair_cache.seed(candidates, aggregates)

    # -- memberships -----------------------------------------------------------
    def blocks_of(self, node: int) -> FrozenSet[int]:
        """The block ids containing ``node`` (empty when the node has none).

        Only the loop oracle intersects these sets, so the map is built from
        the CSR on the first call rather than at construction.
        """
        if self._entity_blocks is None:
            indptr, indices = self._csr.indptr.tolist(), self._csr.indices.tolist()
            self._entity_blocks = {
                node: frozenset(indices[begin:end])
                for node, (begin, end) in enumerate(zip(indptr, indptr[1:]))
                if end > begin
            }
        return self._entity_blocks.get(node, frozenset())

    def common_blocks(self, i: int, j: int) -> FrozenSet[int]:
        """The blocks shared by nodes ``i`` and ``j`` (``B_i ∩ B_j``)."""
        blocks_i = self.blocks_of(i)
        blocks_j = self.blocks_of(j)
        if len(blocks_i) > len(blocks_j):
            blocks_i, blocks_j = blocks_j, blocks_i
        return blocks_i & blocks_j

    # -- aggregates over common blocks -----------------------------------------
    def common_block_count(self, i: int, j: int) -> int:
        """``|B_i ∩ B_j|`` — the raw number of shared blocks."""
        return len(self.common_blocks(i, j))

    def sum_inverse_cardinality(self, block_ids: FrozenSet[int]) -> float:
        """``Σ 1/||b||`` over the given blocks (RACCB/WJS numerator)."""
        if not block_ids:
            return 0.0
        ids = list(block_ids)
        return float(np.sum(1.0 / np.maximum(self.block_cardinalities[ids], 1.0)))

    def sum_inverse_size(self, block_ids: FrozenSet[int]) -> float:
        """``Σ 1/|b|`` over the given blocks (RS/NRS numerator)."""
        if not block_ids:
            return 0.0
        ids = list(block_ids)
        return float(np.sum(1.0 / np.maximum(self.block_sizes[ids], 1.0)))

    # -- LCP ---------------------------------------------------------------------
    def local_candidate_counts(self) -> np.ndarray:
        """``LCP(e_i)`` — the number of distinct candidates of every entity.

        Computed, as in the reference implementation, by iterating over the
        blocks of every entity and collecting its distinct co-occurring
        entities.  This is deliberately the expensive formulation the paper's
        run-time analysis relies on; the result is cached after the first call.
        """
        if self._lcp is None:
            total_nodes = self.blocks.index_space.total
            counts = np.zeros(total_nodes, dtype=np.float64)
            neighbours: Dict[int, Set[int]] = {}
            for block in self.blocks:
                if block.is_bilateral:
                    for node in block.entities_first:
                        neighbours.setdefault(node, set()).update(block.entities_second)
                    for node in block.entities_second:
                        neighbours.setdefault(node, set()).update(block.entities_first)
                else:
                    members = block.entities_first
                    member_set = set(members)
                    for node in members:
                        others = member_set - {node}
                        neighbours.setdefault(node, set()).update(others)
            for node, candidate_set in neighbours.items():
                counts[node] = len(candidate_set)
            self._lcp = counts
        return self._lcp

    def local_candidate_counts_sparse(self) -> np.ndarray:
        """LCP as the degree of every node in the distinct candidate-pair set.

        The pairs are the ones handed over at construction or, for a bare
        ``BlockStatistics(blocks)``, derived with the side-aware expansion
        candidate extraction uses.  Independent of the loop formulation
        above (own cache), so the equivalence tests genuinely compare the
        two.
        """
        if self._lcp_sparse is None:
            total_nodes = self.blocks.index_space.total
            if self._candidates is not None:
                left, right = self._candidates.left, self._candidates.right
            else:
                # stranded blocks expand as intra blocks, as in extraction; batch
                # node ids are first side first already: the ranks are the ids
                csr = self._csr
                _, n_first, nodes, block_of = transposed_memberships(
                    csr, self.sides >= 0, self.sides == 1
                )
                plan = pair_expansion_plan(
                    block_of,
                    np.bincount(block_of, minlength=csr.num_blocks),
                    np.bincount(block_of[nodes < n_first], minlength=csr.num_blocks),
                )
                weights = (self.inverse_block_cardinalities, self.inverse_block_sizes)
                left, right, _ = reduce_memberships(nodes, block_of, plan, csr.num_entities, weights)
            degrees = np.bincount(left, minlength=total_nodes)
            degrees += np.bincount(right, minlength=total_nodes)
            self._lcp_sparse = degrees.astype(np.float64)
        return self._lcp_sparse

    # -- summaries ----------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Summary statistics used in reports and tests."""
        return {
            "blocks": float(self.num_blocks),
            "total_cardinality": self.total_cardinality,
            "avg_blocks_per_entity": float(
                self.blocks_per_entity[self.blocks_per_entity > 0].mean()
            )
            if np.any(self.blocks_per_entity > 0)
            else 0.0,
            "max_block_size": float(self.block_sizes.max()) if self.num_blocks else 0.0,
        }
