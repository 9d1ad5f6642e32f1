"""Block co-occurrence statistics.

All weighting schemes of the paper (Section 4) are functions of the block
co-occurrence patterns of a candidate pair:

* ``B_i`` — the set of blocks containing entity ``e_i``;
* ``|b|`` — the number of entities in block ``b``;
* ``||b||`` — the number of comparisons block ``b`` spawns;
* ``||B||`` — the total number of comparisons in the collection;
* ``||e_i||`` — the summed cardinality of the blocks of ``e_i``.

:class:`BlockStatistics` derives the per-block and per-entity quantities once
per cleaned collection, given as memberships grouped by block, and answers the
per-pair ones for all candidate pairs in one batched co-occurrence pass
(:meth:`BlockStatistics.pair_cooccurrence`).  It is the only implementation:
batch preparation builds it from its filtered matrix
(:meth:`repro.blocking.PreparedBlocks.statistics`) and a stream's exact read
from its cleaned live rows (:class:`repro.incremental.IndexStatistics`).  The
per-pair set formulas the tests hold it against read each block's member
lists in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datamodel.candidates import CandidateSet
from .sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    PairCooccurrenceCache,
    compute_pair_cooccurrence,
    entity_block_csr_from_memberships,
    entity_sums,
    inverse_block_weights,
)


class BlockStatistics:
    """Per-entity and per-block statistics of one cleaned block collection.

    Parameters
    ----------
    nodes, block_of:
        The collection's distinct ``(node, block)`` memberships grouped by
        block in ascending block id, node ids in the id space the schemes
        read (one per entry of ``sides``).
    sizes, cardinalities:
        ``|b|`` and ``||b||`` per block.
    sides:
        Source side per node id (1: second collection; 0 first, -1 a removed
        stream slot) — what makes the co-occurrence kernel's expansion
        first x second.
    candidates:
        The distinct candidate pairs of the collection: LCP is the degree of
        a node in them.
    cooccurrence:
        Optional aggregates of ``candidates``, reduced from the expansion that
        found them; seeded into the cache, so the schemes read them.
    csr:
        Optional prebuilt entity x block CSR of the memberships; built from
        them on first use otherwise.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        block_of: np.ndarray,
        sizes: np.ndarray,
        cardinalities: np.ndarray,
        sides: np.ndarray,
        candidates: CandidateSet,
        cooccurrence: Optional[PairCooccurrence] = None,
        csr: Optional[EntityBlockCSR] = None,
    ) -> None:
        cardinalities = np.asarray(cardinalities, dtype=np.float64)
        #: ``|B|`` — blocks in the collection (each spawns a comparison)
        self.num_blocks = int(cardinalities.size)
        if csr is not None and (csr.num_blocks, csr.num_entities) != (self.num_blocks, sides.size):
            raise ValueError(
                "precomputed CSR does not match the block collection "
                f"({csr.num_entities} x {csr.num_blocks} vs {sides.size} x {self.num_blocks})"
            )
        #: ``||B||`` — the total number of comparisons
        self.total_cardinality = float(cardinalities.sum())
        # per-block inverse weights, 1/max(value, 1): what a shared block adds
        # to the RACCB / WJS / RS / NRS sums
        self.inverse_block_cardinalities = inverse_block_weights(cardinalities)
        self.inverse_block_sizes = inverse_block_weights(sizes)
        self.sides = sides
        # per node, its terms added in ascending block id (np.bincount adds in
        # array order), the order the pair kernel uses
        (
            self.blocks_per_entity,
            self.entity_cardinality,
            self.entity_inv_cardinality,
            self.entity_inv_size,
        ) = entity_sums(
            nodes,
            block_of,
            (cardinalities, self.inverse_block_cardinalities, self.inverse_block_sizes),
            sides.size,
        )
        self._memberships = (nodes, block_of)
        self._csr = csr
        self._candidates = candidates
        self._lcp: Optional[np.ndarray] = None
        self._pair_cache = PairCooccurrenceCache()
        if cooccurrence is not None:
            self._pair_cache.seed(candidates, cooccurrence)

    def csr(self) -> EntityBlockCSR:
        """The entity x block incidence structure."""
        if self._csr is None:
            self._csr = entity_block_csr_from_memberships(
                *self._memberships, self.sides.size, self.num_blocks, assume_unique=True
            )
        return self._csr

    def pair_cooccurrence(self, candidates: CandidateSet) -> PairCooccurrence:
        """Batched co-occurrence aggregates for every pair of ``candidates``.

        The result is cached per candidate set (weakly referenced), so all
        schemes of one feature-matrix generation — and repeated generations
        over the same candidates, as in the feature-selection sweeps — share
        a single intersection pass.
        """
        held = self._pair_cache.cached(candidates)
        if held is None:
            held = compute_pair_cooccurrence(
                self.csr(),
                self.inverse_block_cardinalities,
                self.inverse_block_sizes,
                candidates.left,
                candidates.right,
                self.sides,
            )
            self._pair_cache.seed(candidates, held)
        return held

    def local_candidate_counts_sparse(self) -> np.ndarray:
        """LCP as the degree of every node in the distinct candidate-pair set.

        The tests hold it against ``tests/reference.py::reference_lcp``, which
        walks every block of every entity as the paper counts it.
        """
        if self._lcp is None:
            candidates, num_nodes = self._candidates, self.sides.size
            degrees = np.bincount(candidates.left, minlength=num_nodes)
            degrees += np.bincount(candidates.right, minlength=num_nodes)
            self._lcp = degrees.astype(np.float64)
        return self._lcp
