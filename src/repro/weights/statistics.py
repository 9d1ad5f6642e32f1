"""Block co-occurrence statistics.

All weighting schemes of the paper (Section 4) are functions of the block
co-occurrence patterns of a candidate pair:

* ``B_i`` — the set of blocks containing entity ``e_i``;
* ``|b|`` — the number of entities in block ``b``;
* ``||b||`` — the number of comparisons block ``b`` spawns;
* ``||B||`` — the total number of comparisons in the collection;
* ``||e_i||`` — the summed cardinality of the blocks of ``e_i``.

:class:`BlockStatistics` precomputes the per-block and per-entity quantities
once per block collection, from its entity x block CSR, and answers the
per-pair ones for all candidate pairs in one batched co-occurrence pass
(:meth:`BlockStatistics.pair_cooccurrence`).  It is the only implementation:
the per-pair set formulas the tests hold it against read each ``Block``'s
member lists in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Optional

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
        # per-block inverse weights, 1/max(value, 1): what a shared block adds
        # to the RACCB / WJS / RS / NRS sums
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

    # -- LCP ---------------------------------------------------------------------
    def local_candidate_counts_sparse(self) -> np.ndarray:
        """LCP as the degree of every node in the distinct candidate-pair set.

        The pairs are the ones handed over at construction or, for a bare
        ``BlockStatistics(blocks)``, derived with the side-aware expansion
        candidate extraction uses.  The tests hold it against
        ``tests/reference.py::reference_lcp``, which walks every block of
        every entity as the paper counts it.
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
