"""The blocking graph of unsupervised Meta-blocking.

Nodes are entities, edges are the distinct candidate pairs, and the edge
weight is produced by a single weighting scheme (paper Example 2).  The graph
is stored edge-list style on top of :class:`CandidateSet`, which keeps it
consistent with the supervised pipeline and cheap to prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..weights.registry import get_scheme
from ..weights.schemes import WeightingScheme
from ..weights.statistics import BlockStatistics
from ..weights.sparse import EntityBlockCSR


@dataclass
class BlockingGraph:
    """An edge-weighted view of the candidate pairs of a block collection."""

    #: the distinct candidate pairs (the graph's edges)
    candidates: CandidateSet
    #: one weight per edge, aligned with ``candidates``
    weights: np.ndarray
    #: the weighting scheme that produced the weights
    scheme_name: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.candidates),):
            raise ValueError("weights must align with the candidate pairs")

    @property
    def edge_count(self) -> int:
        """Number of edges (candidate pairs)."""
        return len(self.candidates)

    def node_degrees(self) -> np.ndarray:
        """Degree of every node (number of adjacent edges)."""
        return self.candidates.node_degrees()

    def adjacency(self) -> Dict[int, List[int]]:
        """Map every node to the positions of its adjacent edges."""
        adjacency: Dict[int, List[int]] = {}
        for position, (i, j) in enumerate(
            zip(self.candidates.left.tolist(), self.candidates.right.tolist())
        ):
            adjacency.setdefault(i, []).append(position)
            adjacency.setdefault(j, []).append(position)
        return adjacency


def build_blocking_graph(
    blocks: BlockCollection,
    scheme: Union[str, WeightingScheme] = "CBS",
    candidates: Optional[CandidateSet] = None,
    stats: Optional[BlockStatistics] = None,
    csr: Optional["EntityBlockCSR"] = None,
) -> BlockingGraph:
    """Build the blocking graph of ``blocks`` weighted by ``scheme``.

    Parameters
    ----------
    blocks:
        The redundancy-positive block collection.
    scheme:
        Weighting scheme name or instance (default CBS, the number of common
        blocks, as in the paper's running example).
    candidates, stats:
        Optional precomputed candidate pairs / statistics.
    csr:
        Optional prebuilt entity x block CSR of ``blocks`` (e.g.
        :attr:`repro.blocking.PreparedBlocks.csr`), seeded into the
        statistics so the edge weights skip the incidence rebuild.
        Ignored when ``stats`` is given.
    """
    scheme_obj = get_scheme(scheme) if isinstance(scheme, str) else scheme
    pair_set = candidates if candidates is not None else CandidateSet.from_blocks(blocks)
    statistics = stats if stats is not None else BlockStatistics(blocks, csr=csr)
    values = scheme_obj.compute_sparse(pair_set, statistics)
    if values.shape[1] != 1:
        raise ValueError(
            f"scheme {scheme_obj.name} produces {values.shape[1]} columns; "
            "unsupervised meta-blocking needs a single weight per edge"
        )
    return BlockingGraph(
        candidates=pair_set, weights=values[:, 0], scheme_name=scheme_obj.name
    )
