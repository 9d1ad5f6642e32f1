"""Unsupervised Meta-blocking pruning algorithms.

The classic algorithms of Papadakis et al. (TKDE 2014 / EDBT 2016) operate on
the blocking graph with a single weight per edge — no classifier, no validity
threshold.  They are included as the historical baselines the supervised
approaches generalise, and to support ablations comparing supervised vs
unsupervised pruning on the same weights.

The implementations reuse the supervised algorithms' structure: an edge-mask
is computed from the weights and per-node aggregates; the only differences
are (i) there is no 0.5 validity threshold, and (ii) CEP/CNP budgets come
from the same block-collection statistics as the supervised versions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Set

import numpy as np

from ..datamodel import BlockCollection
from ..utils.pqueue import BoundedTopQueue
from ..utils.validation import check_ratio
from ..core.pruning.cardinality_based import cep_budget, cnp_budget, resolve_budget
from .graph import BlockingGraph


class UnsupervisedPruningAlgorithm(ABC):
    """Prune a blocking graph's edges using only their scheme weights."""

    name: str = "unsupervised"

    @abstractmethod
    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        """Return a boolean retained-mask over the graph's edges."""


class UnsupervisedWEP(UnsupervisedPruningAlgorithm):
    """Weighted Edge Pruning: keep edges above the global average weight."""

    name = "U-WEP"

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        if graph.edge_count == 0:
            return np.zeros(0, dtype=bool)
        return graph.weights >= float(graph.weights.mean())


class UnsupervisedWNP(UnsupervisedPruningAlgorithm):
    """Weighted Node Pruning: keep edges above either endpoint's average weight."""

    name = "U-WNP"
    require_both = False

    def _node_averages(self, graph: BlockingGraph) -> np.ndarray:
        total_nodes = graph.candidates.index_space.total
        sums = np.zeros(total_nodes, dtype=np.float64)
        counts = np.zeros(total_nodes, dtype=np.int64)
        np.add.at(sums, graph.candidates.left, graph.weights)
        np.add.at(counts, graph.candidates.left, 1)
        np.add.at(sums, graph.candidates.right, graph.weights)
        np.add.at(counts, graph.candidates.right, 1)
        averages = np.full(total_nodes, np.inf, dtype=np.float64)
        populated = counts > 0
        averages[populated] = sums[populated] / counts[populated]
        return averages

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        averages = self._node_averages(graph)
        reaches_left = graph.weights >= averages[graph.candidates.left]
        reaches_right = graph.weights >= averages[graph.candidates.right]
        if self.require_both:
            return reaches_left & reaches_right
        return reaches_left | reaches_right


class UnsupervisedRWNP(UnsupervisedWNP):
    """Reciprocal WNP: both endpoint averages must be reached."""

    name = "U-RWNP"
    require_both = True


class UnsupervisedBLAST(UnsupervisedPruningAlgorithm):
    """BLAST (Simonini et al. 2016): per-node maxima with a pruning ratio."""

    name = "U-BLAST"

    def __init__(self, ratio: float = 0.35) -> None:
        self.ratio = check_ratio(ratio, "ratio")

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        total_nodes = graph.candidates.index_space.total
        maxima = np.zeros(total_nodes, dtype=np.float64)
        np.maximum.at(maxima, graph.candidates.left, graph.weights)
        np.maximum.at(maxima, graph.candidates.right, graph.weights)
        thresholds = self.ratio * (
            maxima[graph.candidates.left] + maxima[graph.candidates.right]
        )
        return graph.weights >= thresholds


class UnsupervisedCEP(UnsupervisedPruningAlgorithm):
    """Cardinality Edge Pruning: globally keep the top-K weighted edges."""

    name = "U-CEP"

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        budget = resolve_budget(self, blocks, cep_budget, "K")
        mask = np.zeros(graph.edge_count, dtype=bool)
        if graph.edge_count == 0:
            return mask
        if graph.edge_count <= budget:
            return np.ones(graph.edge_count, dtype=bool)
        keys = graph.candidates.packed_keys()
        queue: BoundedTopQueue[int] = BoundedTopQueue(budget)
        for position, weight in enumerate(graph.weights):
            queue.push(float(weight), position, key=int(keys[position]))
        mask[np.array(queue.items(), dtype=np.int64)] = True
        return mask


class UnsupervisedCNP(UnsupervisedPruningAlgorithm):
    """Cardinality Node Pruning: per-node top-k edges, OR-semantics."""

    name = "U-CNP"
    require_both = False

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        budget = resolve_budget(self, blocks, cnp_budget, "k")

        queues: Dict[int, BoundedTopQueue[int]] = {}
        keys = graph.candidates.packed_keys()
        for position, weight in enumerate(graph.weights):
            key = int(keys[position])
            for node in (
                int(graph.candidates.left[position]),
                int(graph.candidates.right[position]),
            ):
                queue = queues.get(node)
                if queue is None:
                    queue = BoundedTopQueue(budget)
                    queues[node] = queue
                queue.push(float(weight), position, key=key)
        retained: Dict[int, Set[int]] = {
            node: set(queue.items()) for node, queue in queues.items()
        }

        mask = np.zeros(graph.edge_count, dtype=bool)
        for position in range(graph.edge_count):
            left = int(graph.candidates.left[position])
            right = int(graph.candidates.right[position])
            in_left = position in retained.get(left, ())
            in_right = position in retained.get(right, ())
            mask[position] = (
                (in_left and in_right) if self.require_both else (in_left or in_right)
            )
        return mask


class UnsupervisedRCNP(UnsupervisedCNP):
    """Reciprocal CNP: the edge must be in both endpoints' top-k queues."""

    name = "U-RCNP"
    require_both = True
