"""Worker-side kernels of the parallel execution engine.

Every function here is a module-level callable dispatched through
:meth:`repro.parallel.executor.ParallelExecutor.starmap` (picklable by
qualified name, importable under both ``fork`` and ``spawn`` start methods).
Large inputs arrive as :class:`~repro.parallel.shm.SharedArrayHandle`
references and are attached as zero-copy views; outputs are either written
into pre-allocated shared buffers at disjoint offsets (the co-occurrence
pass) or returned as small/result-sized arrays.

All kernels are deterministic and seedless — they reuse the single-process
kernels unchanged (:func:`repro.blocking.arrayops.encode_signatures`,
:func:`repro.weights.sparse.compute_pair_cooccurrence`, the expansion and
sorted-unique dedup of :mod:`repro.pairs`), which is what makes every
parallel stage bit-identical to its ``workers=1`` oracle.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..blocking.arrayops import encode_signatures
from ..blocking.base import BlockingMethod
from ..datamodel.entity import EntityProfile
from ..pairs import distinct_pair_keys
from ..weights.sparse import EntityBlockCSR, compute_pair_cooccurrence
from .shm import SharedArrayHandle, attach_view


# -- tokenization ----------------------------------------------------------------
def tokenize_shard(
    profiles: Sequence[EntityProfile], blocking: BlockingMethod
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Tokenize one entity shard into a dictionary-encoded signature stream.

    Returns :func:`repro.blocking.arrayops.encode_signatures` of the shard —
    ``(codes, lengths, vocabulary)`` over the shard's own sorted vocabulary;
    the parent merges the shard vocabularies and remaps the codes into the
    global one.
    """
    return encode_signatures(blocking.signature_lists(profiles))


def signature_lists_chunk(
    profiles: Sequence[EntityProfile], blocking: BlockingMethod
) -> List[List[str]]:
    """Raw per-profile signature lists for one chunk (sharded-index ingest)."""
    return blocking.signature_lists(profiles)


# -- candidate extraction --------------------------------------------------------
def candidate_chunk(
    nodes_h: SharedArrayHandle,
    repeats_h: SharedArrayHandle,
    right_begin_h: SharedArrayHandle,
    offsets_h: SharedArrayHandle,
    start: int,
    stop: int,
    total: int,
    chunk_keys: int,
) -> np.ndarray:
    """Distinct packed candidate keys spawned by one membership range.

    :func:`repro.pairs.distinct_pair_keys` restricted to memberships
    ``[start, stop)`` of the published plan.
    """
    return distinct_pair_keys(
        attach_view(nodes_h),
        attach_view(repeats_h),
        attach_view(right_begin_h),
        attach_view(offsets_h),
        total,
        chunk_keys,
        start,
        stop,
    )


# -- feature generation ----------------------------------------------------------
def cooccurrence_range(
    indptr_h: SharedArrayHandle,
    indices_h: SharedArrayHandle,
    num_blocks: int,
    inv_cardinality_h: SharedArrayHandle,
    inv_size_h: SharedArrayHandle,
    left_h: SharedArrayHandle,
    right_h: SharedArrayHandle,
    sides_h: SharedArrayHandle,
    out_common_h: SharedArrayHandle,
    out_inv_cardinality_h: SharedArrayHandle,
    out_inv_size_h: SharedArrayHandle,
    start: int,
    stop: int,
) -> None:
    """Per-pair co-occurrence aggregates for candidate pairs ``[start, stop)``.

    Runs :func:`repro.weights.sparse.compute_pair_cooccurrence` — the
    single-process kernel, unchanged — on the pair slice and writes the three
    aggregate vectors into the shared output buffers at the same offsets.
    Slices are disjoint across workers, so no synchronisation is needed, and
    each pair's aggregates depend only on its own CSR rows — chunk boundaries
    cannot change any value.
    """
    csr = EntityBlockCSR(
        indptr=attach_view(indptr_h),
        indices=attach_view(indices_h),
        num_blocks=num_blocks,
    )
    left = attach_view(left_h)
    right = attach_view(right_h)
    aggregates = compute_pair_cooccurrence(
        csr,
        attach_view(inv_cardinality_h),
        attach_view(inv_size_h),
        left[start:stop],
        right[start:stop],
        attach_view(sides_h),
    )
    attach_view(out_common_h)[start:stop] = aggregates.common
    attach_view(out_inv_cardinality_h)[start:stop] = aggregates.sum_inverse_cardinality
    attach_view(out_inv_size_h)[start:stop] = aggregates.sum_inverse_size
