"""Vectorized co-occurrence kernels behind every weighting scheme.

The block collection is flattened once into an entity x block incidence
structure in CSR form, and the three per-pair aggregates every
co-occurrence scheme is built from —

* ``|B_i ∩ B_j|`` — the number of shared blocks,
* ``Σ_{b ∈ B_i ∩ B_j} 1/||b||`` — the RACCB/WJS numerator,
* ``Σ_{b ∈ B_i ∩ B_j} 1/|b|`` — the RS/NRS numerator —

are computed for *all* candidate pairs at once (NumPy only, no per-pair
Python) by one of two passes that add a pair's terms in the same order:

* the **reduce pass** (:func:`reduce_pair_cooccurrence`) expands the blocks
  into comparisons once through the side-aware plan of :mod:`repro.pairs`,
  packs each as one int64 ``(left, right, block id)``, sorts, and reads the
  distinct pairs off the run boundaries and the aggregates off
  ``np.bincount`` over the run index.  Where the request *is* the distinct
  set — block preparation's filtered matrix, a stream's live rows —
  :func:`reduce_memberships` hands pairs and aggregates forward;
  :func:`compute_pair_cooccurrence` runs it on the CSR restricted to the
  requested nodes and gathers the request out of it;
* the **pair-major pass** (:func:`pair_major_cooccurrence`) intersects the
  two sorted CSR rows of every pair — what one-insert deltas, self-pairs,
  same-side pairs of a bilateral request and key spaces past
  :data:`repro.pairs.KEY_BITS` get, as :func:`plan_block_major` decides from
  the inputs alone.

Cached aggregates are read-only (:class:`PairCooccurrenceCache`); entity-level
log factors (CF-IBF, EJS) are taken per entity (:func:`entity_log_ratios`).

The paper's per-pair set formulas over each block's member lists
(``tests/reference.py::reference_feature_matrix``) are the reference these
kernels are checked against: ``tests/weights/test_backend_equivalence.py``
and ``tests/weights/test_golden_features.py`` assert ``np.allclose``-identical
feature matrices on randomized and golden inputs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..pairs import (
    distinct_pair_keys,
    expand_pair_chunks,
    key_field_bits,
    pair_expansion_plan,
    sorted_unique,
)

#: Pairs intersected (pair-major) or comparisons expanded (reduce pass) per
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


class PairCooccurrence(NamedTuple):
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


def inverse_block_weights(values: np.ndarray) -> np.ndarray:
    """Per-block ``1/max(value, 1)`` — the term a shared block adds to a sum.

    Block statistics and the reduce pass of block preparation both weigh
    with this one expression, which keeps their sums bit-identical.
    """
    return 1.0 / np.maximum(np.asarray(values, dtype=np.float64), 1.0)


def entity_sums(
    nodes: np.ndarray,
    block_of: np.ndarray,
    per_block: Sequence[np.ndarray],
    num_nodes: int,
) -> Tuple[np.ndarray, ...]:
    """Per node, over its ``(node, block)`` memberships: their count, then the
    sum of every per-block vector — ``(|B_i|, ||e_i||, Σ 1/||b||, Σ 1/|b|)``
    for the vectors ``(||b||, 1/||b||, 1/|b|)``.

    A node's terms are added in the order its memberships come, ascending
    block id at every caller (batch statistics, a streamed exact read, an
    insert-time read), which makes their sums the same bits.
    """
    counts = np.bincount(nodes, minlength=num_nodes).astype(np.float64)
    return (counts, *(
        np.bincount(nodes, weights=values[block_of], minlength=num_nodes) for values in per_block
    ))


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
        keys = np.sort(keys) if assume_unique else sorted_unique(keys)
        nodes = keys // num_blocks
        block_ids = keys % num_blocks
    else:
        nodes = np.empty(0, dtype=np.int64)
        block_ids = np.empty(0, dtype=np.int64)

    counts = np.bincount(nodes, minlength=total_nodes)
    indptr = np.zeros(total_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return EntityBlockCSR(indptr=indptr, indices=block_ids, num_blocks=num_blocks)


def gather_rows(csr: EntityBlockCSR, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
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


def transposed_memberships(
    csr: EntityBlockCSR, is_active: np.ndarray, second: np.ndarray
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The rows of the active nodes, transposed: ``(active, n_first, nodes,
    block_of)`` — the active node ids ranked first side first (``n_first``
    of them on the first side) and their memberships sorted by (block id,
    rank), with nodes as ranks into ``active``."""
    active = np.flatnonzero(is_active)
    on_second = second[active]
    active = np.concatenate((active[~on_second], active[on_second]))
    n_first = active.size - int(np.count_nonzero(on_second))
    ranks, block_ids = gather_rows(csr, active)
    bits = key_field_bits(csr.num_blocks, active.size)
    if bits is None:
        raise OverflowError("(block, node) keys of the collection do not fit an int64")
    rank_bits = bits[1]
    packed = np.sort((block_ids << rank_bits) | ranks)
    return active, n_first, packed & ((1 << rank_bits) - 1), packed >> rank_bits


def reduce_memberships(
    nodes: np.ndarray,
    block_of: np.ndarray,
    plan: Tuple[np.ndarray, np.ndarray, np.ndarray],
    num_nodes: int,
    weights: Tuple[np.ndarray, np.ndarray],
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray, Optional[PairCooccurrence]]:
    """Memberships grouped by block -> ``(left, right, aggregates)`` of the
    distinct pairs, sorted and oriented as the ``plan`` emits them; ``weights``
    are the per-block inverse cardinalities and sizes.  A refused ``(left,
    right, block id)`` key yields the pairs alone (aggregates ``None``: whoever
    needs them computes them).  Block preparation runs this on its filtered
    matrix and a streamed answer on its cleaned live rows (:func:`reduce_blocks`).
    """
    bits = key_field_bits(num_nodes, num_nodes, weights[0].size)
    if bits is None:
        stride = max(num_nodes, 1)
        return (*np.divmod(distinct_pair_keys(nodes, *plan, stride, chunk_pairs), stride), None)
    left, aggregates = reduce_pair_cooccurrence(
        nodes, block_of, *plan[:2], bits[0], bits[2], *weights, chunk_pairs
    )
    right = left & ((1 << bits[0]) - 1)
    left >>= bits[0]
    return left, right, aggregates


def reduce_blocks(
    nodes: np.ndarray,
    block_of: np.ndarray,
    sizes: np.ndarray,
    first_sizes: np.ndarray,
    num_nodes: int,
    size_first: Optional[int],
    weights: Tuple[np.ndarray, np.ndarray],
    csr: Callable[[], EntityBlockCSR],
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray, Optional[PairCooccurrence]]:
    """The distinct candidate pairs of a block collection and their aggregates.

    The collection is memberships grouped by block, first side ahead of
    second (node ids below ``size_first``; ``None``: Dirty ER), ``sizes`` /
    ``first_sizes`` per block; pairs come sorted by (left, right).  Block
    preparation runs this on its filtered matrix and the streamed answer on
    its cleaned live rows.  A block Block Filtering stranded with first-side
    members only expands as an intra block, so same-side pairs join the
    candidates of a two-source collection; they share cross blocks the
    expansion never lists for them, so their aggregates are patched by row
    intersection over ``csr()`` (the collection's CSR in the same node ids).
    """
    plan = pair_expansion_plan(block_of, sizes, first_sizes)
    left, right, aggregates = reduce_memberships(
        nodes, block_of, plan, num_nodes, weights, chunk_pairs
    )
    if aggregates is not None and size_first is not None:
        same_side = right < size_first
        if same_side.any():
            patch = pair_major_cooccurrence(csr(), *weights, left[same_side], right[same_side])
            for out, values in zip(aggregates, patch):
                out[same_side] = values
    return left, right, aggregates


#: Σ row lengths of the requested pairs below which the pair-major pass costs
#: less than *planning* the reduce pass (restriction + transposition), so no
#: plan is attempted — one-insert streaming deltas live here.
_MIN_BLOCK_MAJOR_ENTRIES: int = 1 << 15

#: Measured cost of one expanded comparison of the reduce pass (expansion,
#: its share of one int64 sort and of the ``np.bincount`` terms, the gather)
#: in units of one gathered pair-major row entry: on random subsets and
#: pair-range slices of DblpAcm, AbtBuy and D50K candidate sets the two
#: passes break even at 1.7-2.6 row entries per comparison.
_BLOCK_MAJOR_UNIT_COST: int = 2


class _BlockMajorPlan(NamedTuple):
    """The reducible part of a request and its blocks, restricted and transposed."""

    #: request positions the reduce pass serves (``None``: all of them); the
    #: rest — self-pairs, same-side pairs of a bilateral request — go pair-major
    positions: Optional[np.ndarray]
    #: packed ``(rank, rank)`` key of each served pair, in request order
    keys: np.ndarray
    #: memberships of the requested nodes (as ranks) sorted by (block, side, node)
    nodes: np.ndarray
    block_of: np.ndarray
    #: their expansion plan, pruned to the requested left endpoints
    repeats: np.ndarray
    right_begin: np.ndarray
    #: field widths of the ``(rank, rank, block id)`` key
    node_bits: int
    block_bits: int


def plan_block_major(
    csr: EntityBlockCSR, left: np.ndarray, right: np.ndarray, sides: np.ndarray
) -> Optional[_BlockMajorPlan]:
    """Plan the reduce pass, or ``None`` when pair-major should serve it all.

    The side-aware expansion lists *every* shared block only of the pairs a
    block can emit: the cross-side pairs of a request that has any, else
    (all pairs same-side, as in Dirty ER) every non-self pair through the
    intra expansion; the other positions go pair-major.  For the reducible
    part the choice is a cost estimate from the inputs alone: the
    comparisons the blocks of the requested nodes expand into from a
    requested left endpoint, against the row entries pair-major gathers,
    ``Σ |B_i| + |B_j|``.  A full candidate set revisits every row once per
    neighbour, so the reduce pass wins by the redundancy of the collection;
    a one-insert delta touches each counterpart row once while their blocks
    expand into mostly unrequested comparisons, so pair-major wins — as it
    does when :func:`repro.pairs.key_field_bits` refuses the key.
    """
    indptr = csr.indptr
    entries = indptr[left + 1] - indptr[left] + indptr[right + 1] - indptr[right]
    if int(entries.sum()) < _MIN_BLOCK_MAJOR_ENTRIES:
        return None
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    second = np.asarray(sides) == 1
    reducible = second[lo] != second[hi]
    is_cross = bool(reducible.any())
    if not is_cross:
        reducible = lo != hi
    positions = None
    if not reducible.all():
        positions = np.flatnonzero(reducible)
        lo, hi, entries = lo[positions], hi[positions], entries[positions]

    # restrict to the nodes the request mentions: drops unrelated rows and
    # the stale rows a streaming index leaves behind.  An all-same-side
    # request sees one side, so every block expands as intra
    is_active = np.zeros(csr.num_entities, dtype=bool)
    is_active[lo] = True
    is_active[hi] = True
    n_active = np.count_nonzero(is_active)
    bits = key_field_bits(n_active, n_active, csr.num_blocks)
    if bits is None:
        return None
    active, n_first, nodes, block_of = transposed_memberships(
        csr, is_active, second & is_cross
    )
    sizes = np.bincount(block_of, minlength=csr.num_blocks)
    first_sizes = np.bincount(block_of[nodes < n_first], minlength=csr.num_blocks)
    if is_cross:
        # only two-sided blocks emit a cross-side pair
        emits = (first_sizes > 0) & (sizes > first_sizes)
        sizes, first_sizes = sizes * emits, first_sizes * emits
        keep = emits[block_of]
        nodes, block_of = nodes[keep], block_of[keep]
    repeats, right_begin, _ = pair_expansion_plan(block_of, sizes, first_sizes)
    rank_of = np.empty(csr.num_entities, dtype=np.int64)
    rank_of[active] = np.arange(active.size, dtype=np.int64)
    # the first-side endpoint of a cross pair is ranked lower: it is the left one
    rank_lo, rank_hi = rank_of[lo], rank_of[hi]
    rank_lo, rank_hi = np.minimum(rank_lo, rank_hi), np.maximum(rank_lo, rank_hi)
    # a comparison is only ever asked for through its left endpoint
    is_left = np.zeros(active.size, dtype=bool)
    is_left[rank_lo] = True
    repeats *= is_left[nodes]
    if _BLOCK_MAJOR_UNIT_COST * int(repeats.sum()) >= int(entries.sum()):
        return None
    return _BlockMajorPlan(
        positions, (rank_lo << bits[0]) | rank_hi, nodes, block_of, repeats, right_begin,
        node_bits=bits[0], block_bits=bits[2],
    )


def reduce_pair_cooccurrence(
    nodes: np.ndarray,
    block_of: np.ndarray,
    repeats: np.ndarray,
    right_begin: np.ndarray,
    node_bits: int,
    block_bits: int,
    inverse_cardinalities: np.ndarray,
    inverse_sizes: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, PairCooccurrence]:
    """Expand the comparisons once and reduce them to per-pair aggregates.

    ``nodes`` / ``block_of`` are memberships grouped by block, first side
    ahead of second, ``repeats`` / ``right_begin`` their
    :func:`repro.pairs.pair_expansion_plan`.  Every comparison becomes one
    int64 ``(left, right, block id)`` (field widths from
    :func:`repro.pairs.key_field_bits`, which the caller has asked); sorted,
    a pair's comparisons are adjacent in ascending block id, so the run
    boundaries give the distinct pairs and ``np.bincount`` over the run index
    the aggregates — each pair's terms added in ascending block id, exactly
    as the pair-major pass adds them.  Returns the sorted distinct
    ``left << node_bits | right`` keys and their aggregates.

    The expansion runs entity-major — memberships reordered by (node, block)
    and cut between two left nodes into chunks of roughly ``chunk_pairs``
    comparisons — so a pair's comparisons fall in one chunk: chunks own
    disjoint ascending key ranges, nothing is merged or re-associated, and
    the result is bit-identical at any chunk bound with memory bounded by
    the chunk (at least one node's comparisons) plus the distinct set.
    """
    position_bits = max(int(nodes.size), 2).bit_length()
    order = np.sort((nodes << position_bits) | np.arange(nodes.size, dtype=np.int64))
    order &= (1 << position_bits) - 1
    left_nodes, repeats, right_begin = nodes[order], repeats[order], right_begin[order]
    # the (left, ·, block id) part of every comparison's key, per membership
    lead = (left_nodes << (node_bits + block_bits)) | block_of[order]
    pair_offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(repeats, out=pair_offsets[1:])
    node_cuts = np.concatenate(
        ([0], np.flatnonzero(left_nodes[1:] != left_nodes[:-1]) + 1, [order.size])
    )
    parts = []
    for packed, scratch in expand_pair_chunks(
        lead, nodes, repeats, right_begin, pair_offsets, node_cuts, chunk_pairs
    ):
        scratch <<= block_bits
        packed |= scratch
        packed.sort()
        # fresh chunk-sized arrays cost more than the arithmetic on them
        # (page faults), so the dead ones are reused from here on
        blocks = np.bitwise_and(packed, (1 << block_bits) - 1, out=scratch)
        packed >>= block_bits
        is_start = np.empty(packed.size, dtype=bool)
        is_start[0] = True
        np.not_equal(packed[1:], packed[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        keys = packed[starts]
        common = np.empty(starts.size, dtype=np.float64)
        np.subtract(starts[1:], starts[:-1], out=common[:-1])
        common[-1] = packed.size - starts[-1]
        # 1-based run index: bin 0 stays empty and is sliced off
        run = np.cumsum(is_start, out=packed)
        weights = inverse_cardinalities[blocks]
        sum_inverse_cardinality = np.bincount(run, weights=weights)[1:]
        np.take(inverse_sizes, blocks, out=weights)
        parts.append(
            (keys, common, sum_inverse_cardinality, np.bincount(run, weights=weights)[1:])
        )
    if len(parts) == 1:
        keys, *aggregates = parts[0]
    elif parts:
        keys, *aggregates = (np.concatenate(columns) for columns in zip(*parts))
    else:
        keys, *aggregates = np.empty(0, dtype=np.int64), *np.zeros((3, 0))
    return keys, PairCooccurrence(*aggregates)


def pair_major_cooccurrence(
    csr: EntityBlockCSR,
    inverse_cardinalities: np.ndarray,
    inverse_sizes: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> PairCooccurrence:
    """The aggregates of the requested pairs by intersecting their CSR rows.

    For each chunk of pairs both CSR rows are expanded into
    ``pair_position * num_blocks + block_id`` keys and intersected with
    :func:`np.intersect1d`, whose sorted output lists every pair's shared
    blocks in ascending block id; the aggregates are ``np.bincount`` over it.
    """
    n_pairs = int(left.size)
    num_blocks = np.int64(csr.num_blocks)
    hit_positions = []
    hit_blocks = []
    for start in range(0, n_pairs, chunk_pairs):
        stop = start + chunk_pairs
        rows_left, blocks_left = gather_rows(csr, left[start:stop])
        rows_right, blocks_right = gather_rows(csr, right[start:stop])
        shared = np.intersect1d(
            rows_left * num_blocks + blocks_left,
            rows_right * num_blocks + blocks_right,
            assume_unique=True,
        )
        hit_positions.append(shared // num_blocks + start)
        hit_blocks.append(shared % num_blocks)
    positions, blocks = np.concatenate(hit_positions), np.concatenate(hit_blocks)
    return PairCooccurrence(
        common=np.bincount(positions, minlength=n_pairs).astype(np.float64),
        sum_inverse_cardinality=np.bincount(
            positions, weights=inverse_cardinalities[blocks], minlength=n_pairs
        ),
        sum_inverse_size=np.bincount(
            positions, weights=inverse_sizes[blocks], minlength=n_pairs
        ),
    )


def compute_pair_cooccurrence(
    csr: EntityBlockCSR,
    inverse_cardinalities: np.ndarray,
    inverse_sizes: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sides: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> PairCooccurrence:
    """Batched per-pair co-occurrence aggregates over all requested pairs.

    Two passes find every pair's shared blocks — the reduce pass (restrict
    the CSR to the requested nodes, transpose it by (block, side, node),
    :func:`reduce_pair_cooccurrence`, gather the request out of the reduced
    keys: one lookup per *requested pair*, not per comparison) and the
    pair-major pass (intersect the two CSR rows of every pair); which serves
    which position is decided by :func:`plan_block_major` from the inputs.
    Both add a pair's terms in ascending block id, so the result is
    bit-identical whichever pass ran and whatever ``chunk_pairs`` is.

    Parameters
    ----------
    csr:
        The entity x block incidence structure.
    inverse_cardinalities, inverse_sizes:
        Per-block ``1/max(||b||, 1)`` and ``1/max(|b|, 1)`` weight vectors.
    left, right:
        Parallel node-id arrays of the requested pairs, in any orientation
        and order.
    sides:
        Source side per node id (``1``: second collection; anything else
        counts as first) — what makes the expansion first x second.
    chunk_pairs:
        Pairs (comparisons) expanded per chunk; bounds the temporaries.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    n_pairs = int(left.size)
    if n_pairs == 0 or csr.num_blocks == 0 or csr.indices.size == 0:
        zeros = np.zeros(n_pairs, dtype=np.float64)
        return PairCooccurrence(zeros, zeros.copy(), zeros.copy())

    weights = (inverse_cardinalities, inverse_sizes)
    plan = plan_block_major(csr, left, right, sides)
    if plan is None:
        return pair_major_cooccurrence(csr, *weights, left, right, chunk_pairs)
    keys, reduced = reduce_pair_cooccurrence(*plan[2:], *weights, chunk_pairs)
    requested = plan.keys
    if requested.size == keys.size and np.array_equal(requested, keys):
        # the request *is* the distinct set of the expansion, in its order
        if plan.positions is None:
            return reduced
        where, found = np.arange(keys.size), slice(None)
    else:
        # gather; ascending needles keep the binary searches cache-friendly,
        # and requested pairs sharing no block are absent from the reduction
        unsorted = np.any(requested[1:] < requested[:-1])
        order = np.argsort(requested, kind="stable") if unsorted else slice(None)
        requested = requested[order]
        found = np.searchsorted(keys, requested)
        hit = found < keys.size
        hit[hit] = keys[found[hit]] == requested[hit]
        where, found = np.arange(requested.size)[order][hit], found[hit]
    if plan.positions is not None:
        where = plan.positions[where]
    result = PairCooccurrence(*(np.zeros(n_pairs, dtype=np.float64) for _ in range(3)))
    for out, values in zip(result, reduced):
        out[where] = values[found]
    if plan.positions is not None:
        # what the expansion cannot vouch for: self-pairs and the same-side
        # pairs of a bilateral request, by row intersection
        rest = np.ones(n_pairs, dtype=bool)
        rest[plan.positions] = False
        patch = pair_major_cooccurrence(csr, *weights, left[rest], right[rest], chunk_pairs)
        for out, values in zip(result, patch):
            out[rest] = values
    return result


class PairCooccurrenceCache:
    """Single-entry cache of :class:`PairCooccurrence` per candidate set.

    All schemes of one feature-matrix generation — and repeated generations
    over the same candidate-set object — share a single intersection pass
    (:meth:`repro.weights.BlockStatistics.pair_cooccurrence`).  The candidate
    set is held weakly, so the cache never prolongs its life.
    """

    def __init__(self) -> None:
        self._entry: Optional[Tuple[weakref.ref, PairCooccurrence]] = None

    def cached(self, candidates) -> Optional[PairCooccurrence]:
        """The aggregates held for ``candidates``, if any."""
        if self._entry is not None:
            ref, held = self._entry
            if ref() is candidates:
                return held
        return None

    def seed(self, candidates, result: PairCooccurrence) -> None:
        """Hold ``result`` as the aggregates of ``candidates``.

        Whatever is held — computed, or reduced by block preparation or a
        stream's exact read from the expansion that found the pairs — is only
        read: the arrays turn non-writeable, CBS / RACCB / RS are views.
        """
        for array in result:
            array.flags.writeable = False
        self._entry = (weakref.ref(candidates), result)


def safe_log_ratio_array(total: float, values: np.ndarray) -> np.ndarray:
    """``log(total / values)`` element-wise, 0 where the denominator is
    non-positive, the total is non-positive, or the ratio does not exceed 1.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(values.shape, dtype=np.float64)
    if total <= 0.0:
        return out
    # the ratio stays 1, its logarithm 0, where the denominator is not positive
    ratio = np.divide(total, values, out=np.ones_like(out), where=values > 0.0)
    return np.log(ratio, out=out, where=ratio > 1.0)


def entity_log_ratios(
    total: float, per_entity: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`safe_log_ratio_array` of an entity-level quantity at both endpoints:
    once per entity and gathered, or — a one-insert delta against a large live
    index — per endpoint; ``min(2 * n_pairs, n_entities)`` logarithms, same bits."""
    if 2 * left.size < per_entity.size:
        return tuple(safe_log_ratio_array(total, per_entity[nodes]) for nodes in (left, right))
    ratios = safe_log_ratio_array(total, per_entity)
    return ratios[left], ratios[right]
