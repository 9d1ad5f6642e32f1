"""Base class for supervised pruning algorithms.

A supervised pruning algorithm receives the classification probability of
every candidate pair (produced by the trained probabilistic classifier) and
decides which pairs to retain.  Pairs with probability below
:data:`VALIDITY_THRESHOLD` (0.5) are never retained — they are not *valid*
in the paper's terminology — and the remaining pairs are filtered with either
a weight-based or a cardinality-based criterion.  The criterion alone, on
every pair and with no threshold, is :meth:`SupervisedPruningAlgorithm.retain`:
given a weighting scheme's values instead of probabilities it is classic
(unsupervised) Meta-blocking, since a pruning algorithm only needs one score
per pair.

The ``totals`` parameter of :meth:`SupervisedPruningAlgorithm.prune` is read
by the cardinality-based algorithms only: the two integers of
:class:`BlockTotals` — ``Σ|b|`` and ``|E1|+|E2|`` — from which their budgets
``K`` and ``k`` derive.  Batch callers read them off the prepared membership
matrix (:meth:`BlockTotals.of`); the streaming indexes and the serving view
maintain them under every mutation (``block_totals()``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from ...datamodel.candidates import CandidateSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...blocking.arrayops import MembershipMatrix

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
    def of(cls, blocks: "MembershipMatrix") -> "BlockTotals":
        """The totals of a membership matrix: ``Σ|b|`` over the blocks whose
        cardinality is positive, and its index space's entities."""
        spawning = blocks.block_cardinalities() > 0
        return cls(int(blocks.block_sizes()[spawning].sum()), blocks.index_space.total)


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
        totals: Optional[BlockTotals] = None,
    ) -> np.ndarray:
        """Return a boolean mask over the candidate pairs (True = retained).

        Parameters
        ----------
        probabilities:
            Positive-class probability of every candidate pair, aligned with
            ``candidates``.
        candidates:
            The candidate pairs being pruned.
        totals:
            The :class:`BlockTotals` of the originating block collection;
            required by cardinality-based algorithms to derive their
            retention budgets (K and k), ignored by the others.
        """
        probabilities = self._validate(probabilities, candidates)
        totals = self._checked_totals(totals)
        positions = np.flatnonzero(probabilities >= VALIDITY_THRESHOLD)
        mask = np.zeros(len(candidates), dtype=bool)
        retained = self._retain(probabilities[positions], candidates.subset(positions), totals)
        mask[positions[retained]] = True
        return mask

    def retain(
        self,
        weights: np.ndarray,
        candidates: CandidateSet,
        totals: Optional[BlockTotals] = None,
    ) -> np.ndarray:
        """The algorithm's criterion applied to *every* pair, with no validity
        threshold: a boolean mask over ``candidates``.

        This is unsupervised Meta-blocking when ``weights`` are a weighting
        scheme's values (one per pair, e.g. ``get_scheme("RACCB")
        .compute(candidates, stats)[:, 0]``): they need not lie in
        [0, 1], so only their shape is checked.  ``totals`` is read as by
        :meth:`prune`.
        """
        weights = self._aligned(weights, candidates, "weights")
        return self._retain(weights, candidates, self._checked_totals(totals))

    @abstractmethod
    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, totals: Optional[BlockTotals]
    ) -> np.ndarray:
        """The algorithm's criterion: a boolean mask over the pairs handed in.

        ``prune`` hands in only the pairs that reached the validity
        threshold (possibly none) with their probabilities, so no algorithm
        reads — or allocates for — the pairs it could never retain;
        :meth:`retain` hands in every pair with its weight.
        """

    @staticmethod
    def _aligned(values: np.ndarray, candidates: CandidateSet, what: str) -> np.ndarray:
        """``values`` as a float array, refused unless 1-D and one per pair."""
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError(f"{what} must be a 1-D array")
        if array.size != len(candidates):
            raise ValueError(f"expected {len(candidates)} {what}, got {array.size}")
        return array

    @staticmethod
    def _checked_totals(totals) -> Optional[BlockTotals]:
        """``totals``, refused unless ``None`` or a :class:`BlockTotals` — a
        membership matrix goes through :meth:`BlockTotals.of` first."""
        if totals is not None and not isinstance(totals, BlockTotals):
            raise TypeError(f"totals must be a BlockTotals or None, got {type(totals).__name__}")
        return totals

    @classmethod
    def _validate(cls, probabilities: np.ndarray, candidates: CandidateSet) -> np.ndarray:
        """Validate and return the probabilities as a float array."""
        array = cls._aligned(probabilities, candidates, "probabilities")
        # written so that NaN (for which every comparison is False) is refused
        if array.size and not (0.0 <= array.min() and array.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        return array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
