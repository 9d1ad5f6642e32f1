"""Vectorized co-occurrence kernels behind every weighting scheme.

The block collection is flattened once into an entity x block incidence
structure in CSR form, and the three per-pair aggregates every
co-occurrence scheme is built from —

* ``|B_i ∩ B_j|`` — the number of shared blocks,
* ``Σ_{b ∈ B_i ∩ B_j} 1/||b||`` — the RACCB/WJS numerator,
* ``Σ_{b ∈ B_i ∩ B_j} 1/|b|`` — the RS/NRS numerator —

are computed for *all* candidate pairs at once (NumPy only, no per-pair
Python): block-major, by expanding every block's comparisons once and
looking them up among the requested pairs, or pair-major, by sorted-array
row intersections, whichever :func:`plan_block_major` estimates cheaper for
the request.  The schemes then combine these aggregates with precomputed
per-entity vectors using plain array arithmetic.

The per-pair ``WeightingScheme.compute`` bodies are the reference these
kernels are checked against: ``tests/weights/test_backend_equivalence.py``
and ``tests/weights/test_golden_features.py`` assert ``np.allclose``-identical
feature matrices on randomized and golden inputs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..datamodel import BlockCollection

#: Pairs intersected (pair-major) or comparisons expanded (block-major) per
#: chunk of the co-occurrence pass; bounds the size of its temporaries.
DEFAULT_CHUNK_PAIRS: int = 1 << 16


@dataclass(frozen=True)
class EntityBlockCSR:
    """The entity x block incidence structure in CSR form.

    Row ``n`` (an entity node id) spans ``indices[indptr[n]:indptr[n+1]]``,
    the sorted block ids containing the entity.  Entities absent from every
    block are empty rows.
    """

    #: row pointers, shape ``(num_entities + 1,)``
    indptr: np.ndarray
    #: sorted block ids per row, shape ``(total memberships,)``
    indices: np.ndarray
    #: number of blocks (column count)
    num_blocks: int

    @property
    def num_entities(self) -> int:
        """Number of rows (node ids) in the incidence structure."""
        return int(self.indptr.size - 1)


@dataclass(frozen=True)
class PairCooccurrence:
    """The per-pair co-occurrence aggregates of one candidate set.

    All arrays have shape ``(n_pairs,)`` and align with the candidate set's
    ``left``/``right`` arrays.
    """

    #: ``|B_i ∩ B_j|`` per pair
    common: np.ndarray
    #: ``Σ 1/||b||`` over the shared blocks per pair
    sum_inverse_cardinality: np.ndarray
    #: ``Σ 1/|b|`` over the shared blocks per pair
    sum_inverse_size: np.ndarray


def entity_block_csr_from_memberships(
    nodes: np.ndarray,
    block_ids: np.ndarray,
    total_nodes: int,
    num_blocks: int,
    assume_unique: bool = False,
) -> EntityBlockCSR:
    """Build the CSR incidence structure from flat membership arrays.

    Parameters
    ----------
    nodes, block_ids:
        Parallel arrays with one entry per (entity, block) assignment.
    total_nodes, num_blocks:
        Dimensions of the incidence structure.
    assume_unique:
        Skip deduplication when the (node, block) pairs are known distinct
        (e.g. when handed over by block preparation).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    if nodes.size and num_blocks:
        # (node, block) keys, sorted by node then block id
        keys = nodes * np.int64(num_blocks) + block_ids
        if assume_unique:
            keys = np.sort(keys)
        else:
            # imported here: blocking.arrayops itself imports this module
            from ..blocking.arrayops import sorted_unique

            keys = sorted_unique(keys)
        nodes = keys // num_blocks
        block_ids = keys % num_blocks
    else:
        nodes = np.empty(0, dtype=np.int64)
        block_ids = np.empty(0, dtype=np.int64)

    counts = np.bincount(nodes, minlength=total_nodes)
    indptr = np.zeros(total_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return EntityBlockCSR(indptr=indptr, indices=block_ids, num_blocks=num_blocks)


def build_entity_block_csr(blocks: BlockCollection) -> EntityBlockCSR:
    """Flatten a block collection into the CSR incidence structure.

    Membership duplicates (an entity listed twice in one block) are collapsed,
    matching the set semantics of the per-pair reference.
    """
    block_ids, nodes = blocks.membership_arrays()
    return entity_block_csr_from_memberships(
        nodes, block_ids, blocks.index_space.total, len(blocks)
    )


def _gather_rows(csr: EntityBlockCSR, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``.

    Returns ``(row_positions, block_ids)``: for every membership of every
    requested node, the position of the node in ``nodes`` and the block id.
    Rows appear in request order with block ids sorted within a row, so the
    combined key ``row_position * num_blocks + block_id`` is globally sorted.
    """
    counts = csr.indptr[nodes + 1] - csr.indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    row_starts = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=row_starts[1:])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(row_starts, counts)
    flat = np.repeat(csr.indptr[nodes], counts) + offsets
    return rows, csr.indices[flat]


def expand_pair_chunks(
    nodes: np.ndarray,
    repeats: np.ndarray,
    right_begin: np.ndarray,
    pair_offsets: np.ndarray,
    chunk_pairs: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """The block-major expansion of the comparisons, in bounded chunks.

    ``nodes`` are memberships grouped by block; membership ``m`` is the left
    endpoint of ``repeats[m]`` comparisons whose right endpoints are the
    contiguous slice of ``nodes`` starting at ``right_begin[m]``, and
    ``pair_offsets`` is the exclusive prefix sum of ``repeats``.  Yields
    ``(begin, end, left, right)`` for successive membership ranges of
    ``[start, stop)`` spawning roughly ``chunk_pairs`` comparisons each —
    plain ``np.repeat`` + offset arithmetic, no per-block Python.  Candidate
    extraction (serial and sharded) and the block-major co-occurrence pass
    all expand through here.
    """
    stop = int(nodes.size) if stop is None else stop
    while start < stop:
        end = int(
            np.searchsorted(pair_offsets, pair_offsets[start] + chunk_pairs, side="right")
        ) - 1
        end = min(max(end, start + 1), stop)
        chunk_total = int(pair_offsets[end] - pair_offsets[start])
        if chunk_total:
            chunk_repeats = repeats[start:end]
            left = np.repeat(nodes[start:end], chunk_repeats)
            within = np.arange(chunk_total, dtype=np.int64) - np.repeat(
                pair_offsets[start:end] - pair_offsets[start], chunk_repeats
            )
            right = nodes[np.repeat(right_begin[start:end], chunk_repeats) + within]
            yield start, end, left, right
        start = end


#: Σ row lengths of the requested pairs below which the pair-major pass costs
#: less than *planning* the block-major one (restriction + transposition), so
#: no plan is attempted — one-insert streaming deltas live here.
_MIN_BLOCK_MAJOR_ENTRIES: int = 1 << 15

#: Measured cost of one expanded block-major comparison (a binary search into
#: the requested keys) in units of one gathered pair-major row entry.
_BLOCK_MAJOR_UNIT_COST: int = 2


class _BlockMajorPlan(NamedTuple):
    """The requested pairs and their blocks, restricted and transposed."""

    #: sorted distinct packed keys ``lo * n_active + hi`` of the requested pairs
    keys: np.ndarray
    #: request position per sorted key (``None``: the request was sorted)
    order: Optional[np.ndarray]
    #: key stride — the number of nodes occurring in the requested pairs
    n_active: np.int64
    #: memberships of those nodes, sorted by (block id, node rank)
    block_of: np.ndarray
    nodes: np.ndarray
    #: intra-block expansion plan (see :func:`expand_pair_chunks`)
    repeats: np.ndarray
    right_begin: np.ndarray
    pair_offsets: np.ndarray


def plan_block_major(
    csr: EntityBlockCSR, left: np.ndarray, right: np.ndarray
) -> Optional[_BlockMajorPlan]:
    """Plan the block-major pass, or ``None`` when pair-major should run.

    The choice is a cost estimate computed from the inputs alone: the
    comparisons the blocks of the requested nodes expand into (each costs a
    key lookup) against the row entries the pair-major pass gathers,
    ``Σ |B_i| + |B_j|`` over the requested pairs.  A full candidate set
    revisits every row once per neighbour, so block-major wins by the
    redundancy of the collection; a one-insert delta touches each counterpart
    row once while their blocks expand into mostly unrequested comparisons,
    so pair-major wins.  Self-pairs, duplicate pairs and key spaces that
    would overflow int64 are left to the pair-major pass as well.
    """
    indptr = csr.indptr
    pair_entries = int(
        (indptr[left + 1] - indptr[left]).sum() + (indptr[right + 1] - indptr[right]).sum()
    )
    if pair_entries < _MIN_BLOCK_MAJOR_ENTRIES:
        return None
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    if np.any(lo == hi):
        return None

    # restrict to the nodes the request mentions: drops unrelated rows and
    # the stale rows a streaming index leaves behind
    is_active = np.zeros(csr.num_entities, dtype=bool)
    is_active[lo] = True
    is_active[hi] = True
    active = np.flatnonzero(is_active)
    n_active = int(active.size)
    if max(n_active, csr.num_blocks) * n_active > np.iinfo(np.int64).max:
        return None
    ranks, block_ids = _gather_rows(csr, active)
    sizes = np.bincount(block_ids, minlength=csr.num_blocks)
    expanded = int((sizes * (sizes - 1) // 2).sum())
    if _BLOCK_MAJOR_UNIT_COST * expanded >= pair_entries:
        return None

    stride = np.int64(n_active)
    rank_of = np.cumsum(is_active) - 1
    keys = rank_of[lo] * stride + rank_of[hi]
    order = None
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            return None

    # transpose: memberships sorted by (block id, node rank)
    packed = np.sort(block_ids * stride + ranks)
    block_ends = np.repeat(np.cumsum(sizes), sizes)
    positions = np.arange(packed.size, dtype=np.int64)
    repeats = block_ends - 1 - positions
    pair_offsets = np.zeros(packed.size + 1, dtype=np.int64)
    np.cumsum(repeats, out=pair_offsets[1:])
    return _BlockMajorPlan(
        keys=keys,
        order=order,
        n_active=stride,
        block_of=packed // stride,
        nodes=packed % stride,
        repeats=repeats,
        right_begin=positions + 1,
        pair_offsets=pair_offsets,
    )


def _block_major_hits(
    plan: _BlockMajorPlan, chunk_pairs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair position, block id)`` per shared block, in ascending block id.

    Every block's ``i < j`` member pairs are expanded and looked up in the
    sorted requested keys; comparisons nobody asked for (and the same-side
    pairs of a bilateral block) miss and are dropped, so the blocks need no
    side information.
    """
    last = plan.keys.size - 1
    hit_positions = [np.empty(0, dtype=np.int64)]
    hit_blocks = [np.empty(0, dtype=np.int64)]
    for begin, end, left, right in expand_pair_chunks(
        plan.nodes, plan.repeats, plan.right_begin, plan.pair_offsets, chunk_pairs
    ):
        comparison_keys = left * plan.n_active + right
        found = np.searchsorted(plan.keys, comparison_keys)
        np.minimum(found, last, out=found)
        hit = plan.keys[found] == comparison_keys
        hit_positions.append(found[hit])
        hit_blocks.append(np.repeat(plan.block_of[begin:end], plan.repeats[begin:end])[hit])
    positions = np.concatenate(hit_positions)
    if plan.order is not None:
        positions = plan.order[positions]
    return positions, np.concatenate(hit_blocks)


def _pair_major_hits(
    csr: EntityBlockCSR, left: np.ndarray, right: np.ndarray, chunk_pairs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair position, block id)`` per shared block, by row intersection.

    For each chunk of pairs both CSR rows are expanded into
    ``pair_position * num_blocks + block_id`` keys and intersected with
    :func:`np.intersect1d`, whose sorted output lists every pair's shared
    blocks in ascending block id.
    """
    num_blocks = np.int64(csr.num_blocks)
    hit_positions = []
    hit_blocks = []
    for start in range(0, int(left.size), chunk_pairs):
        stop = start + chunk_pairs
        rows_left, blocks_left = _gather_rows(csr, left[start:stop])
        rows_right, blocks_right = _gather_rows(csr, right[start:stop])
        shared = np.intersect1d(
            rows_left * num_blocks + blocks_left,
            rows_right * num_blocks + blocks_right,
            assume_unique=True,
        )
        hit_positions.append(shared // num_blocks + start)
        hit_blocks.append(shared % num_blocks)
    return np.concatenate(hit_positions), np.concatenate(hit_blocks)


def compute_pair_cooccurrence(
    csr: EntityBlockCSR,
    inverse_cardinalities: np.ndarray,
    inverse_sizes: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> PairCooccurrence:
    """Batched per-pair co-occurrence aggregates over all requested pairs.

    Two passes find the ``(pair, shared block)`` incidences — block-major
    (expand every block's comparisons once, look them up among the requested
    pairs) and pair-major (intersect the two CSR rows of every pair); which
    one runs is decided by :func:`plan_block_major` from the inputs.  Both
    list a pair's shared blocks in ascending block id and the aggregates are
    one ``np.bincount`` over that list, so the result is bit-identical
    whichever pass ran and whatever ``chunk_pairs`` is — no per-pair Python
    either way.

    Parameters
    ----------
    csr:
        The entity x block incidence structure.
    inverse_cardinalities, inverse_sizes:
        Per-block ``1/max(||b||, 1)`` and ``1/max(|b|, 1)`` weight vectors.
    left, right:
        Parallel node-id arrays of the requested pairs, in any orientation
        and order.
    chunk_pairs:
        Pairs (comparisons) expanded per chunk; bounds the temporaries.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    n_pairs = int(left.size)
    if n_pairs == 0 or csr.num_blocks == 0 or csr.indices.size == 0:
        zeros = np.zeros(n_pairs, dtype=np.float64)
        return PairCooccurrence(zeros, zeros.copy(), zeros.copy())

    plan = plan_block_major(csr, left, right)
    if plan is not None:
        positions, blocks = _block_major_hits(plan, chunk_pairs)
    else:
        positions, blocks = _pair_major_hits(csr, left, right, chunk_pairs)
    return PairCooccurrence(
        common=np.bincount(positions, minlength=n_pairs).astype(np.float64),
        sum_inverse_cardinality=np.bincount(
            positions, weights=inverse_cardinalities[blocks], minlength=n_pairs
        ),
        sum_inverse_size=np.bincount(
            positions, weights=inverse_sizes[blocks], minlength=n_pairs
        ),
    )


class PairCooccurrenceCache:
    """Single-entry cache of :class:`PairCooccurrence` per candidate set.

    All schemes of one feature-matrix generation — and repeated generations
    over the same candidate-set object — share a single intersection pass.
    The candidate set is held weakly, so the cache never prolongs its life.
    Both the batch :class:`repro.weights.BlockStatistics` and the streaming
    :class:`repro.incremental.IncrementalStatistics` delegate here.
    """

    def __init__(self) -> None:
        self._entry: Optional[Tuple[weakref.ref, PairCooccurrence]] = None

    def get(
        self, candidates, compute: Callable[[], PairCooccurrence]
    ) -> PairCooccurrence:
        """Return the cached aggregates for ``candidates`` or compute them."""
        if self._entry is not None:
            ref, cached = self._entry
            if ref() is candidates:
                return cached
        result = compute()
        self._entry = (weakref.ref(candidates), result)
        return result

    def seed(self, candidates, result: PairCooccurrence) -> None:
        """Install precomputed aggregates for ``candidates``.

        The parallel feature engine (:mod:`repro.parallel.features`)
        computes the aggregates across worker processes and seeds them
        here, so every scheme of the subsequent generation reads the cache
        instead of re-running the intersection pass.
        """
        self._entry = (weakref.ref(candidates), result)


def safe_log_ratio_array(total: float, values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.weights.schemes._safe_log_ratio`.

    ``log(total / values)`` element-wise, 0 where the denominator is
    non-positive, the total is non-positive, or the ratio does not exceed 1.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(values.shape, dtype=np.float64)
    if total <= 0.0:
        return out
    positive = values > 0.0
    ratio = np.divide(total, values, out=np.ones_like(out), where=positive)
    take = positive & (ratio > 1.0)
    out[take] = np.log(ratio[take])
    return out
