"""Parallel feature generation over the candidate-pair CSR.

Every co-occurrence weighting scheme (``compute_sparse``) is plain array
arithmetic over two ingredients (:mod:`repro.weights.sparse`):

* the three per-pair co-occurrence aggregates (shared-block count and the
  two inverse-weight sums) — the batched intersection pass that dominates
  feature-generation run-time;
* per-entity vectors (``|B_i|``, ``||e_i||``, inverse sums, LCP counts).

This module computes the one expensive ingredient — the **co-occurrence
pass** — across worker processes; the feature generator seeds the result
into the :class:`~repro.weights.BlockStatistics` cache, after which the
schemes run unchanged (and serially — they are element-wise array
expressions).  The candidate pairs are split into row ranges; each worker
runs :func:`repro.weights.sparse.compute_pair_cooccurrence` — the
single-process kernel, unchanged — over its range against the shared
read-only CSR and writes the aggregate vectors into shared output buffers at
its own offsets.  A pair's aggregates depend only on the blocks its two
entities share, summed in ascending block id by either pass of the kernel,
so the result is bit-identical for every worker count.  The per-entity
vectors need no fan-out: they are ``np.bincount`` passes over the CSR, and
LCP is the candidate-pair degree the statistics already hold.
"""

from __future__ import annotations

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..weights.sparse import PairCooccurrence
from ..weights.statistics import BlockStatistics
from .executor import ParallelExecutor, split_ranges
from .worker import cooccurrence_range


def parallel_pair_cooccurrence(
    stats: BlockStatistics,
    candidates: CandidateSet,
    executor: ParallelExecutor,
) -> PairCooccurrence:
    """The per-pair co-occurrence aggregates, computed across workers.

    Bit-identical to
    :func:`repro.weights.sparse.compute_pair_cooccurrence` on the full
    candidate set (the ``workers=1`` oracle).
    """
    csr = stats.csr()
    n_pairs = len(candidates)
    if n_pairs == 0 or csr.num_blocks == 0 or csr.indices.size == 0:
        zeros = np.zeros(n_pairs, dtype=np.float64)
        return PairCooccurrence(zeros, zeros.copy(), zeros.copy())

    indptr_h = executor.publish(csr.indptr)
    indices_h = executor.publish(csr.indices)
    inv_cardinality_h = executor.publish(stats.inverse_block_cardinalities)
    inv_size_h = executor.publish(stats.inverse_block_sizes)
    left_h = executor.publish(candidates.left)
    right_h = executor.publish(candidates.right)
    sides_h = executor.publish(stats.sides)

    out_common_h, out_common = executor.allocate_output((n_pairs,), np.float64)
    out_sic_h, out_sic = executor.allocate_output((n_pairs,), np.float64)
    out_sis_h, out_sis = executor.allocate_output((n_pairs,), np.float64)

    tasks = [
        (
            indptr_h,
            indices_h,
            csr.num_blocks,
            inv_cardinality_h,
            inv_size_h,
            left_h,
            right_h,
            sides_h,
            out_common_h,
            out_sic_h,
            out_sis_h,
            start,
            stop,
        )
        for start, stop in split_ranges(n_pairs, executor.workers)
    ]
    executor.starmap(cooccurrence_range, tasks)

    result = PairCooccurrence(
        common=out_common.copy(),
        sum_inverse_cardinality=out_sic.copy(),
        sum_inverse_size=out_sis.copy(),
    )
    executor.release_outputs()
    return result
