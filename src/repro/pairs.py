"""Comparison expansion: the one layer below ``blocking`` and ``weights``.

Every candidate pair and every co-occurrence feature is a function of the
same object — the redundancy-bearing expansion of the blocks into
comparisons.  This leaf module (NumPy only; nothing from ``repro`` above
``datamodel``) owns what every layer needs to build and key it:

* the sort kernels (:func:`sorted_unique`, :func:`merge_sorted_unique`);
* packed int64 keys with **the** overflow guard: :func:`key_field_bits`
  budgets the fields of any packed key against :data:`KEY_BITS`, and
  :func:`pack_pair_keys` is the stable ``left << 32 | right`` registry key
  bounded by :data:`MAX_NODE_ID`;
* **the** side-aware expansion plan (:func:`pair_expansion_plan`) — first x
  second for a cross block, ``i < j`` for an intra block, the stranded-block
  rule — and the expansion itself (:func:`expand_pair_chunks`,
  :func:`distinct_pair_keys`): ``np.repeat`` + offset arithmetic in bounded
  chunks, no per-block Python.

``blocking``, ``weights``, ``incremental``, ``persistence`` and ``serve``
import *down* into it (``tests/test_import_layering.py``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

#: Bits a packed int64 key may use: the sign bit stays clear, and one more is
#: spare so ``key + 1`` sentinels cannot wrap.
KEY_BITS: int = 62

#: node ids must stay below 2^32 for the ``left << 32 | right`` registry keys
#: to be collision free; the insert path refuses to assign ids past this bound
MAX_NODE_ID: int = 1 << 32


def key_field_bits(*extents: int) -> Optional[Tuple[int, ...]]:
    """Bit width per field of a packed key, or ``None`` when it cannot fit.

    Field ``k`` holds values in ``[0, extents[k])``.  Every packing of the
    array layers asks this one budget, and a refusal is never silent:
    callers take a path that needs no such key or raise :class:`OverflowError`.
    """
    bits = tuple(max(int(extent) - 1, 1).bit_length() for extent in extents)
    return bits if sum(bits) <= KEY_BITS else None


def node_id_overflow(node: int) -> OverflowError:
    """The error every registry-key packing raises at :data:`MAX_NODE_ID`."""
    return OverflowError(
        f"node id {node} reaches 2^32: packed pair keys would collide and "
        "silently corrupt the candidate registry; compact() the index to "
        "renumber live entities into fresh slots"
    )


def pack_pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One stable int64 key per node pair: ``left << 32 | right``.

    Node ids below 2^32 make the key collision free and — unlike a packing
    whose field widths follow the current extents — stable as an index
    grows.  The streaming registry, the session's online tie-breaking, the
    snapshot loader and the serving router share this definition; ids at or
    past the bound raise :class:`OverflowError` rather than colliding.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.size:
        largest = max(int(left.max()), int(right.max()))
        if largest >= MAX_NODE_ID:
            raise node_id_overflow(largest)
    return (left << np.int64(32)) | right


def dedup_sorted(ordered: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from an already-sorted array."""
    if ordered.size == 0:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    Equivalent to ``np.unique`` but via an explicit sort + adjacent-diff
    mask; NumPy's hash-based unique is several times slower on the packed
    int64 keys the array layers run on.
    """
    if values.size == 0:
        return values
    return dedup_sorted(np.sort(values))


def merge_sorted_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted distinct arrays, as a sorted distinct array.

    A vectorized two-way merge (scatter by ``searchsorted`` rank) instead of
    re-sorting the concatenation, so repeated flushes into a growing
    accumulator stay linear in its size.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.empty(a.size + b.size, dtype=np.int64)
    merged[np.arange(a.size, dtype=np.int64) + np.searchsorted(b, a, side="left")] = a
    merged[np.arange(b.size, dtype=np.int64) + np.searchsorted(a, b, side="right")] = b
    return dedup_sorted(merged)


def pair_expansion_plan(
    block_of: np.ndarray, sizes: np.ndarray, first_sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-membership pair-expansion plan: ``(repeats, right_begin, offsets)``.

    The memberships are grouped by block (``block_of`` ascending) with every
    block's first side ahead of its second; ``sizes`` / ``first_sizes`` are
    ``|b|`` and the first-side count per block (equal for Dirty ER).  Every
    membership is assigned the comparisons it is the *left* endpoint of:

    * **cross block** (both sides present): a first-side member pairs with
      the whole second side, a second-side member emits nothing;
    * **intra block** (Dirty ER, or a *stranded* clean-clean block whose
      second side Block Filtering emptied — ``Block.is_bilateral`` flips):
      a member pairs with the strictly-later members of its block.

    Returned per membership: the repeat count, the start of its contiguous
    right-hand slice in the flat node array, and the exclusive prefix sum of
    the repeats (length ``n_memberships + 1``).  Any contiguous partitioning
    of the memberships therefore yields the same comparisons.
    """
    positions = np.arange(block_of.size, dtype=np.int64)
    block_ends = np.cumsum(sizes)
    second = (sizes - first_sizes)[block_of]
    first_end = (block_ends - sizes + first_sizes)[block_of]
    is_cross = second > 0
    repeats = np.where(
        is_cross,
        np.where(positions < first_end, second, 0),
        block_ends[block_of] - 1 - positions,
    )
    right_begin = np.where(is_cross, first_end, positions + 1)
    pair_offsets = np.zeros(block_of.size + 1, dtype=np.int64)
    np.cumsum(repeats, out=pair_offsets[1:])
    return repeats, right_begin, pair_offsets


def expand_pair_chunks(
    left_nodes: np.ndarray,
    right_nodes: np.ndarray,
    repeats: np.ndarray,
    right_begin: np.ndarray,
    pair_offsets: np.ndarray,
    cuts: np.ndarray,
    chunk_pairs: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The planned comparisons as ``(left, right)`` arrays, in bounded chunks.

    Membership ``m`` is the left endpoint ``left_nodes[m]`` of ``repeats[m]``
    comparisons whose right endpoints are the contiguous slice of
    ``right_nodes`` starting at ``right_begin[m]``; ``pair_offsets`` is the
    exclusive prefix sum of ``repeats``.  ``cuts`` are the ascending
    membership positions a chunk may begin or end at: successive ranges
    between two cuts are expanded, each spawning at most ``chunk_pairs``
    comparisons unless a single cut-to-cut step is larger.
    """
    bounds = pair_offsets[cuts]
    begin, last = 0, int(cuts.size) - 1
    while begin < last:
        end = int(np.searchsorted(bounds, bounds[begin] + chunk_pairs, side="right")) - 1
        end = min(max(end, begin + 1), last)
        start, stop = int(cuts[begin]), int(cuts[end])
        begin = end
        if pair_offsets[stop] == pair_offsets[start]:
            continue
        chunk_repeats = repeats[start:stop]
        left = np.repeat(left_nodes[start:stop], chunk_repeats)
        # every right endpoint: its rank within its membership's slice,
        # shifted to where the slice begins
        shift = right_begin[start:stop] - (pair_offsets[start:stop] - pair_offsets[start])
        within = np.repeat(shift, chunk_repeats)
        within += np.arange(left.size, dtype=np.int64)
        yield left, right_nodes[within]


def distinct_pair_keys(
    nodes: np.ndarray,
    repeats: np.ndarray,
    right_begin: np.ndarray,
    pair_offsets: np.ndarray,
    stride: int,
    chunk_keys: int,
) -> np.ndarray:
    """Sorted distinct ``left * stride + right`` keys of a block-major plan.

    The memberships are expanded in chunks of roughly ``chunk_keys``
    comparisons, each flushed through a sorted-unique pass into a running
    union: peak memory is bounded by the chunk plus the *distinct* pair set,
    never by the raw comparison count.
    """
    if key_field_bits(stride, stride) is None:
        raise OverflowError(f"pair keys over {stride} nodes do not fit an int64")
    cuts = np.arange(nodes.size + 1, dtype=np.int64)
    seen: np.ndarray = np.empty(0, dtype=np.int64)
    for left, right in expand_pair_chunks(
        nodes, nodes, repeats, right_begin, pair_offsets, cuts, chunk_keys
    ):
        left *= np.int64(stride)
        left += right
        seen = merge_sorted_unique(seen, sorted_unique(left))
    return seen
