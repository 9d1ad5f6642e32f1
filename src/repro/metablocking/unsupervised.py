"""Unsupervised Meta-blocking pruning algorithms.

The classic algorithms of Papadakis et al. (TKDE 2014 / EDBT 2016) operate on
the blocking graph with a single weight per edge — no classifier, no validity
threshold.  They are included as the historical baselines the supervised
approaches generalise, and to support ablations comparing supervised vs
unsupervised pruning on the same weights.

The implementations call the same array kernels as the supervised
algorithms (:mod:`repro.core.pruning.kernels`), on every edge instead of the
valid pairs: the only differences are (i) there is no 0.5 validity
threshold, and (ii) CEP/CNP budgets come from the same block-collection
statistics as the supervised versions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..datamodel.block import BlockCollection
from ..utils.validation import check_ratio
from ..core.pruning.cardinality_based import cep_budget, cnp_budget, resolve_budget
from ..core.pruning.kernels import (
    node_averages,
    node_maxima,
    top_k,
    top_k_per_node,
)
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

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        edges = graph.candidates
        averages = node_averages(
            edges.left, edges.right, graph.weights, edges.index_space.total
        )
        reaches_left = graph.weights >= averages[edges.left]
        reaches_right = graph.weights >= averages[edges.right]
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
        edges = graph.candidates
        maxima = node_maxima(edges.left, edges.right, graph.weights, edges.index_space.total)
        return graph.weights >= self.ratio * (maxima[edges.left] + maxima[edges.right])


class UnsupervisedCEP(UnsupervisedPruningAlgorithm):
    """Cardinality Edge Pruning: globally keep the top-K weighted edges."""

    name = "U-CEP"

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive when given")
        self.budget = budget

    def prune(self, graph: BlockingGraph, blocks: Optional[BlockCollection] = None) -> np.ndarray:
        budget = resolve_budget(self, blocks, cep_budget, "K")
        return top_k(graph.weights, graph.candidates.packed_keys(), budget)


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
        edges = graph.candidates
        in_left, in_right = top_k_per_node(
            edges.left, edges.right, graph.weights, edges.packed_keys(), budget
        )
        return in_left & in_right if self.require_both else in_left | in_right


class UnsupervisedRCNP(UnsupervisedCNP):
    """Reciprocal CNP: the edge must be in both endpoints' top k."""

    name = "U-RCNP"
    require_both = True
