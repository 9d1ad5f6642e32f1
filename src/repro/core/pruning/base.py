"""Base class for supervised pruning algorithms.

A supervised pruning algorithm receives the classification probability of
every candidate pair (produced by the trained probabilistic classifier) and
decides which pairs to retain.  Pairs with probability below
:data:`VALIDITY_THRESHOLD` (0.5) are never retained — they are not *valid*
in the paper's terminology — and the remaining pairs are filtered with either
a weight-based or a cardinality-based criterion.

The ``blocks`` parameter of :meth:`SupervisedPruningAlgorithm.prune` is read
by the cardinality-based algorithms only, and only for the two integers of
:class:`BlockTotals` — ``Σ|b|`` and ``|E1|+|E2|`` — from which their budgets
``K`` and ``k`` derive.  Batch callers hand in the
:class:`~repro.datamodel.BlockCollection` itself; the streaming indexes and
the serving view maintain the two integers under every mutation and hand in
a :class:`BlockTotals` (``block_totals()``), so an online answer never
materialises a block collection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional, Union

import numpy as np

from ...datamodel.block import BlockCollection
from ...datamodel.candidates import CandidateSet

#: Candidate pairs with a classification probability below this value are
#: discarded before any pruning criterion is applied (paper Definition 2).
VALIDITY_THRESHOLD: float = 0.5


class BlockTotals(NamedTuple):
    """The two integers cardinality-based pruning reads from a collection."""

    #: ``Σ_{b∈B} |b|`` — (entity, block) memberships over the blocks that
    #: spawn at least one comparison
    assignments: int
    #: ``|E1| + |E2|`` — live entities
    entities: int

    @classmethod
    def of(cls, blocks: "BlockSource") -> "BlockTotals":
        """``blocks`` itself when already totals, else read off the collection."""
        if isinstance(blocks, cls):
            return blocks
        return cls(blocks.total_block_assignments(), blocks.index_space.total)


#: what ``prune`` accepts as ``blocks``
BlockSource = Union[BlockCollection, BlockTotals]


class SupervisedPruningAlgorithm(ABC):
    """Decide which candidate pairs to retain given their match probabilities."""

    #: short name used in reports ("WEP", "BLAST", ...)
    name: str = "pruning"
    #: "weight", "cardinality" or "baseline"
    kind: str = "weight"

    def prune(
        self,
        probabilities: np.ndarray,
        candidates: CandidateSet,
        blocks: Optional[BlockSource] = None,
    ) -> np.ndarray:
        """Return a boolean mask over the candidate pairs (True = retained).

        Parameters
        ----------
        probabilities:
            Positive-class probability of every candidate pair, aligned with
            ``candidates``.
        candidates:
            The candidate pairs being pruned.
        blocks:
            The originating block collection or its :class:`BlockTotals`;
            required by cardinality-based algorithms to derive their
            retention budgets (K and k), ignored by the others.
        """
        probabilities = self._validate(probabilities, candidates)
        positions = np.flatnonzero(probabilities >= VALIDITY_THRESHOLD)
        mask = np.zeros(len(candidates), dtype=bool)
        retained = self._retain(probabilities[positions], candidates.subset(positions), blocks)
        mask[positions[retained]] = True
        return mask

    @abstractmethod
    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, blocks: Optional[BlockSource]
    ) -> np.ndarray:
        """The algorithm's criterion: a boolean mask over the *valid* pairs.

        ``prune`` hands in only the pairs that reached the validity
        threshold (possibly none) with their probabilities, so no algorithm
        reads — or allocates for — the pairs it could never retain.
        """

    @staticmethod
    def _validate(probabilities: np.ndarray, candidates: CandidateSet) -> np.ndarray:
        """Validate and return the probabilities as a float array."""
        array = np.asarray(probabilities, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError("probabilities must be a 1-D array")
        if array.size != len(candidates):
            raise ValueError(
                f"expected {len(candidates)} probabilities, got {array.size}"
            )
        # written so that NaN (for which every comparison is False) is refused
        if array.size and not (0.0 <= array.min() and array.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        return array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
