"""Cardinality-based supervised pruning algorithms (paper Section 3.2).

These algorithms retain a *budgeted number* of the top-weighted valid pairs:

* :class:`SupervisedCEP` — the global top-K pairs, with
  ``K = Σ_{b∈B} |b| / 2`` (Algorithm 4);
* :class:`SupervisedCNP` — a per-entity top-k, with ``k`` the average number
  of block memberships per entity; a pair survives when it is in the queue of
  *either* constituent entity (Algorithm 5);
* :class:`SupervisedRCNP` — the reciprocal variant, requiring membership in
  the queues of *both* entities.

Probability ties at the retention boundary are broken deterministically by
the packed candidate key (``left * total + right``, smaller key wins), so
the retained set is a pure function of the scored pair set — independent of
the order candidate pairs are stored in.  This is what makes the streaming
session's arrival-ordered registry (:mod:`repro.incremental`) reproduce the
batch pipeline's canonical ordering exactly for the cardinality algorithms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...datamodel import CandidateSet
from ...utils.pqueue import BoundedTopQueue
from .base import BlockSource, BlockTotals, SupervisedPruningAlgorithm


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
    lives — serial, parallel and unsupervised pruning all resolve here.
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

    def prune(
        self,
        probabilities: np.ndarray,
        candidates: CandidateSet,
        blocks: Optional[BlockSource] = None,
    ) -> np.ndarray:
        probabilities = self._validate(probabilities, candidates)
        budget = resolve_budget(self, blocks, cep_budget, "K")

        valid = self.valid_mask(probabilities)
        mask = np.zeros(len(candidates), dtype=bool)
        valid_positions = np.flatnonzero(valid)
        if valid_positions.size == 0:
            return mask
        if valid_positions.size <= budget:
            mask[valid_positions] = True
            return mask

        keys = candidates.packed_keys()
        queue: BoundedTopQueue[int] = BoundedTopQueue(budget)
        for position in valid_positions:
            queue.push(
                float(probabilities[position]), int(position), key=int(keys[position])
            )
        mask[np.array(queue.items(), dtype=np.int64)] = True
        return mask


class SupervisedCNP(SupervisedPruningAlgorithm):
    """Cardinality Node Pruning — per-entity top-k queues, OR-semantics.

    Parameters
    ----------
    budget:
        Optional explicit per-entity k; when ``None`` it is derived from the
        block collection with :func:`cnp_budget`.
    """

    name = "CNP"
    kind = "cardinality"
    #: whether a pair must be in the queue of both entities (RCNP) or one (CNP)
    require_both = False

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def _per_entity_queues(
        self,
        probabilities: np.ndarray,
        candidates: CandidateSet,
        budget: int,
    ) -> Dict[int, Set[int]]:
        """Return, per node, the set of retained candidate-pair positions."""
        queues: Dict[int, BoundedTopQueue[int]] = {}
        keys = candidates.packed_keys()
        valid_positions = np.flatnonzero(self.valid_mask(probabilities))
        for position in valid_positions:
            probability = float(probabilities[position])
            key = int(keys[position])
            for node in (int(candidates.left[position]), int(candidates.right[position])):
                queue = queues.get(node)
                if queue is None:
                    queue = BoundedTopQueue(budget)
                    queues[node] = queue
                queue.push(probability, int(position), key=key)
        return {node: set(queue.items()) for node, queue in queues.items()}

    def prune(
        self,
        probabilities: np.ndarray,
        candidates: CandidateSet,
        blocks: Optional[BlockSource] = None,
    ) -> np.ndarray:
        probabilities = self._validate(probabilities, candidates)
        budget = resolve_budget(self, blocks, cnp_budget, "k")

        retained_per_node = self._per_entity_queues(probabilities, candidates, budget)
        mask = np.zeros(len(candidates), dtype=bool)
        valid_positions = np.flatnonzero(self.valid_mask(probabilities))
        for position in valid_positions:
            left = int(candidates.left[position])
            right = int(candidates.right[position])
            in_left = int(position) in retained_per_node.get(left, ())
            in_right = int(position) in retained_per_node.get(right, ())
            if self.require_both:
                mask[position] = in_left and in_right
            else:
                mask[position] = in_left or in_right
        return mask


class SupervisedRCNP(SupervisedCNP):
    """Reciprocal Cardinality Node Pruning — AND-semantics over the two queues."""

    name = "RCNP"
    kind = "cardinality"
    require_both = True
