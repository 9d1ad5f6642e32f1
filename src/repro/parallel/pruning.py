"""Parallel supervised pruning (the ``workers > 1`` pruning path).

Pruning cost is concentrated in the *cardinality-based* algorithms: CEP,
CNP and RCNP walk every valid candidate pair through Python bounded-queue
pushes.  Their retained sets are selections under the strict total order
(probability descending, packed candidate key ascending) — selection under a
strict total order is insertion-order-free, so it parallelises exactly:

* **CEP** — each worker selects the top-``K`` of a contiguous valid-pair
  range; the parent re-selects the top-``K`` of the merged selections.  A
  range's local top-``K`` necessarily contains every global survivor the
  range holds, so the merge is lossless;
* **CNP/RCNP** — the (node, pair) incidences of the valid pairs are grouped
  into a node-major CSR; workers select each node's top-``k`` over disjoint
  node ranges (per-node selections are independent), and the parent combines
  the per-side retention flags with the algorithm's OR/AND semantics;
* **BLAST** — per-node *maxima* are computed over disjoint pair ranges and
  combined element-wise (maximum is exact and order-free); the threshold
  comparison is then one vectorised pass.

WEP, WNP, RWNP and BCl stay on their single-pass kernels even when
``workers > 1``: they are pure vectorised array passes with nothing left to
parallelise, and their per-node *averages* are floating-point sums whose
value depends on accumulation order — chunked partial sums could flip a
``>=`` comparison in the last ulp and silently break the bit-identical
contract.  Delegating keeps every algorithm exact by construction.

All parallel paths produce bit-identical retained masks to
``algorithm.prune`` (the ``workers=1`` oracle); the equivalence suite
asserts this for every algorithm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.pruning.base import BlockSource, SupervisedPruningAlgorithm
from ..core.pruning.cardinality_based import (
    SupervisedCEP,
    SupervisedCNP,
    cep_budget,
    cnp_budget,
    resolve_budget,
)
from ..core.pruning.weight_based import SupervisedBLAST
from ..datamodel import CandidateSet
from .executor import ParallelExecutor, split_ranges
from .worker import blast_maxima_chunk, cep_chunk, cnp_node_range


def parallel_prune(
    algorithm: SupervisedPruningAlgorithm,
    probabilities: np.ndarray,
    candidates: CandidateSet,
    blocks: Optional[BlockSource],
    executor: ParallelExecutor,
) -> np.ndarray:
    """Prune with worker parallelism where it is exact and profitable.

    Dispatches CEP, CNP/RCNP and BLAST to their sharded implementations;
    every other algorithm runs its own (vectorised, exact) ``prune``.
    """
    if isinstance(algorithm, SupervisedCEP):
        return _prune_cep(algorithm, probabilities, candidates, blocks, executor)
    if isinstance(algorithm, SupervisedCNP):
        return _prune_cnp(algorithm, probabilities, candidates, blocks, executor)
    if isinstance(algorithm, SupervisedBLAST):
        return _prune_blast(algorithm, probabilities, candidates, executor)
    return algorithm.prune(probabilities, candidates, blocks)


def _prune_cep(
    algorithm: SupervisedCEP,
    probabilities: np.ndarray,
    candidates: CandidateSet,
    blocks: Optional[BlockSource],
    executor: ParallelExecutor,
) -> np.ndarray:
    probabilities = algorithm._validate(probabilities, candidates)
    budget = resolve_budget(algorithm, blocks, cep_budget, "K")

    valid = algorithm.valid_mask(probabilities)
    mask = np.zeros(len(candidates), dtype=bool)
    valid_positions = np.flatnonzero(valid)
    if valid_positions.size == 0:
        return mask
    if valid_positions.size <= budget:
        mask[valid_positions] = True
        return mask

    keys = candidates.packed_keys()
    probabilities_h = executor.publish(probabilities)
    keys_h = executor.publish(keys)
    valid_h = executor.publish(valid_positions)
    tasks = [
        (probabilities_h, keys_h, valid_h, start, stop, budget)
        for start, stop in split_ranges(valid_positions.size, executor.workers)
    ]
    merged = np.concatenate(executor.starmap(cep_chunk, tasks))
    order = np.lexsort((keys[merged], -probabilities[merged]))
    mask[merged[order[:budget]]] = True
    return mask


def _prune_cnp(
    algorithm: SupervisedCNP,
    probabilities: np.ndarray,
    candidates: CandidateSet,
    blocks: Optional[BlockSource],
    executor: ParallelExecutor,
) -> np.ndarray:
    probabilities = algorithm._validate(probabilities, candidates)
    budget = resolve_budget(algorithm, blocks, cnp_budget, "k")

    mask = np.zeros(len(candidates), dtype=bool)
    valid_positions = np.flatnonzero(algorithm.valid_mask(probabilities))
    n_valid = valid_positions.size
    if n_valid == 0:
        return mask

    # (node, pair) incidences of the valid pairs: entry i < n_valid is the
    # left-side incidence of valid pair i, entry n_valid + i the right side
    total_nodes = candidates.index_space.total
    keys = candidates.packed_keys()
    entry_node = np.concatenate(
        (candidates.left[valid_positions], candidates.right[valid_positions])
    )
    entry_id = np.arange(2 * n_valid, dtype=np.int64)
    order = np.argsort(entry_node, kind="stable")
    grouped_node = entry_node[order]
    grouped_position = valid_positions[entry_id[order] % n_valid]
    node_ptr = np.zeros(total_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(grouped_node, minlength=total_nodes), out=node_ptr[1:])

    node_h = executor.publish(grouped_node)
    prob_h = executor.publish(probabilities[grouped_position])
    key_h = executor.publish(keys[grouped_position])
    id_h = executor.publish(entry_id[order])
    ptr_h = executor.publish(node_ptr)

    # node ranges balanced by incidence count
    quantiles = np.linspace(0, grouped_node.size, executor.workers + 1)
    bounds = np.searchsorted(node_ptr, quantiles, side="left")
    bounds[0], bounds[-1] = 0, total_nodes
    tasks = [
        (node_h, prob_h, key_h, id_h, ptr_h, int(begin), int(end), budget)
        for begin, end in zip(bounds[:-1], bounds[1:])
        if end > begin
    ]
    retained_entries = np.concatenate(
        [np.asarray(part, dtype=np.int64) for part in executor.starmap(cnp_node_range, tasks)]
        or [np.empty(0, dtype=np.int64)]
    )

    in_left = np.zeros(n_valid, dtype=bool)
    in_right = np.zeros(n_valid, dtype=bool)
    left_entries = retained_entries[retained_entries < n_valid]
    right_entries = retained_entries[retained_entries >= n_valid] - n_valid
    in_left[left_entries] = True
    in_right[right_entries] = True
    retained = in_left & in_right if algorithm.require_both else in_left | in_right
    mask[valid_positions[retained]] = True
    return mask


def _prune_blast(
    algorithm: SupervisedBLAST,
    probabilities: np.ndarray,
    candidates: CandidateSet,
    executor: ParallelExecutor,
) -> np.ndarray:
    probabilities = algorithm._validate(probabilities, candidates)
    valid = algorithm.valid_mask(probabilities)
    total_nodes = candidates.index_space.total
    valid_positions = np.flatnonzero(valid)
    maxima = np.zeros(total_nodes, dtype=np.float64)
    if valid_positions.size:
        left_h = executor.publish(candidates.left)
        right_h = executor.publish(candidates.right)
        probabilities_h = executor.publish(probabilities)
        valid_h = executor.publish(valid_positions)
        tasks = [
            (left_h, right_h, probabilities_h, valid_h, start, stop, total_nodes)
            for start, stop in split_ranges(valid_positions.size, executor.workers)
        ]
        for part in executor.starmap(blast_maxima_chunk, tasks):
            np.maximum(maxima, part, out=maxima)
    thresholds = algorithm.ratio * (maxima[candidates.left] + maxima[candidates.right])
    return valid & (probabilities >= thresholds)
