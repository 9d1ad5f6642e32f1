"""Cardinality-based supervised pruning algorithms (paper Section 3.2).

These algorithms retain a *budgeted number* of the top-weighted valid pairs:

* :class:`SupervisedCEP` — the global top-K pairs, with
  ``K = Σ_{b∈B} |b| / 2`` (Algorithm 4);
* :class:`SupervisedCNP` — a per-entity top-k, with ``k`` the average number
  of block memberships per entity; a pair survives when it is among the top
  k of *either* constituent entity (Algorithm 5);
* :class:`SupervisedRCNP` — the reciprocal variant, requiring it among the
  top k of *both* entities.

Probability ties at the retention boundary are broken deterministically by
the packed candidate key (``left * total + right``, smaller key wins), so
the retained set is a pure function of the scored pair set — independent of
the order candidate pairs are stored in.  This is what makes the streaming
session's arrival-ordered registry (:mod:`repro.incremental`) reproduce the
batch pipeline's canonical ordering exactly for the cardinality algorithms.
The selection is a sort, not a queue (:mod:`.kernels`): the paper's bounded
priority queues retain a prefix of that strict order, and ``np.lexsort``'s
stability resolves duplicate pairs by position the way insertion order did.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...datamodel.candidates import CandidateSet
from .base import BlockSource, BlockTotals, SupervisedPruningAlgorithm
from .kernels import top_k, top_k_per_node


def cep_budget(blocks: BlockSource) -> int:
    """The CEP retention budget: half the sum of block sizes, at least 1."""
    return max(1, BlockTotals.of(blocks).assignments // 2)


def cnp_budget(blocks: BlockSource) -> int:
    """The CNP per-entity budget: the average number of blocks per entity.

    ``k = max(1, Σ_{b∈B} |b| / (|E1| + |E2|))``, rounded to the nearest
    integer as in the reference implementation.
    """
    assignments, entities = BlockTotals.of(blocks)
    if entities == 0:
        return 1
    return max(1, int(round(assignments / entities)))


def resolve_budget(
    algorithm, blocks: Optional[BlockSource], derive, symbol: str
) -> int:
    """The algorithm's explicit ``budget``, else ``derive(blocks)``.

    The one place the "explicit budget, else derive it, else refuse" rule
    lives — supervised and unsupervised pruning both resolve here.
    """
    if algorithm.budget is not None:
        return algorithm.budget
    if blocks is None:
        raise ValueError(
            f"{algorithm.name} needs the block collection to derive its budget {symbol}"
        )
    return derive(blocks)


class SupervisedCEP(SupervisedPruningAlgorithm):
    """Cardinality Edge Pruning — retain the global top-K valid pairs.

    Parameters
    ----------
    budget:
        Optional explicit K; when ``None`` it is derived from the block
        collection with :func:`cep_budget`.
    """

    name = "CEP"
    kind = "cardinality"

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, blocks: Optional[BlockSource]
    ) -> np.ndarray:
        budget = resolve_budget(self, blocks, cep_budget, "K")
        return top_k(probabilities, valid.packed_keys(), budget)


class SupervisedCNP(SupervisedPruningAlgorithm):
    """Cardinality Node Pruning — per-entity top-k, OR-semantics.

    Parameters
    ----------
    budget:
        Optional explicit per-entity k; when ``None`` it is derived from the
        block collection with :func:`cnp_budget`.
    """

    name = "CNP"
    kind = "cardinality"
    #: whether a pair must be in the top k of both entities (RCNP) or one (CNP)
    require_both = False

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def _retain(
        self, probabilities: np.ndarray, valid: CandidateSet, blocks: Optional[BlockSource]
    ) -> np.ndarray:
        budget = resolve_budget(self, blocks, cnp_budget, "k")
        in_left, in_right = top_k_per_node(
            valid.left, valid.right, probabilities, valid.packed_keys(), budget
        )
        return in_left & in_right if self.require_both else in_left | in_right


class SupervisedRCNP(SupervisedCNP):
    """Reciprocal Cardinality Node Pruning — AND-semantics over the two top-k."""

    name = "RCNP"
    kind = "cardinality"
    require_both = True
