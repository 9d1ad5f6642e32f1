"""Array kernels behind every pruning algorithm (NumPy only).

The pruning algorithms call these on the *valid* pairs (``prune``) or on
every pair (``retain``), and the serving daemon's ``top-k`` on one entity's
pairs: inputs are parallel arrays — endpoints, weights, packed candidate
keys — and outputs are boolean masks (or an order) over those same positions.

Cardinality pruning is selection under one strict total order, *strength*:
weight descending, then packed key ascending, then position ascending.  A
bounded priority queue fed in position order retains exactly the prefix of
that order, so a sort and a rank cut replace the queues.  ``np.lexsort`` is
stable, which is what resolves duplicate pairs (equal weight *and* key) by
position the way insertion order did.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def strength_order(weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions strongest first: weight desc, packed key asc, position asc."""
    return np.lexsort((keys, -weights))


def top_k(weights: np.ndarray, keys: np.ndarray, K: int) -> np.ndarray:
    """Mask of the ``K`` strongest pairs (CEP)."""
    if weights.size <= K:
        return np.ones(weights.size, dtype=bool)
    mask = np.zeros(weights.size, dtype=bool)
    mask[strength_order(weights, keys)[:K]] = True
    return mask


def top_k_per_node(
    left: np.ndarray, right: np.ndarray, weights: np.ndarray, keys: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Whether each pair is among the ``k`` strongest of its left / right node.

    Returns ``(in_left, in_right)``; CNP retains ``in_left | in_right``, RCNP
    ``in_left & in_right``.  The pairs are sorted by strength once and their
    (node, pair) incidences laid out *interleaved* — left, right per pair —
    so the stable sort by node keeps every node's run in strength order
    whichever side the node sits on (in a dirty collection a node is the
    left endpoint of some pairs and the right endpoint of others).
    """
    order = strength_order(weights, keys)
    nodes = np.stack((left[order], right[order]), axis=1).ravel()
    by_node = np.argsort(nodes, kind="stable")
    grouped = nodes[by_node]
    opens_run = np.ones(nodes.size, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=opens_run[1:])
    position = np.arange(nodes.size)
    rank = position - np.maximum.accumulate(np.where(opens_run, position, 0))
    kept = by_node[rank < k]
    # incidence 2r + side belongs to the r-th strongest pair
    retained = np.zeros((order.size, 2), dtype=bool)
    retained[order[kept >> 1], kept & 1] = True
    return retained[:, 0], retained[:, 1]


def node_averages(
    left: np.ndarray, right: np.ndarray, weights: np.ndarray, total_nodes: int
) -> np.ndarray:
    """Average weight of the pairs at each node (infinite where there is none).

    ``np.bincount`` accumulates sequentially in input order — every left
    incidence, then every right one — the order the ``np.add.at`` form kept
    in ``tests/reference.py`` has, so the sums agree to the last bit.
    """
    nodes = np.concatenate((left, right))
    sums = np.bincount(nodes, weights=np.concatenate((weights, weights)), minlength=total_nodes)
    counts = np.bincount(nodes, minlength=total_nodes)
    averages = np.full(total_nodes, np.inf)
    populated = counts > 0
    averages[populated] = sums[populated] / counts[populated]
    return averages


def node_maxima(
    left: np.ndarray, right: np.ndarray, weights: np.ndarray, total_nodes: int
) -> np.ndarray:
    """Highest weight among the pairs at each node (zero where there is none)."""
    maxima = np.zeros(total_nodes, dtype=np.float64)
    np.maximum.at(maxima, left, weights)
    np.maximum.at(maxima, right, weights)
    return maxima
