"""Array-native block preparation.

Token Blocking -> Block Purging -> Block Filtering -> candidate extraction
as batched array passes, with no per-entity token sets, dict-of-lists
signature index, per-:class:`Block` loops or Python set of pair tuples:

* profiles are batch-tokenized and the signatures dictionary-encoded into a
  token-id array (sorted-vocabulary ranks, so block order matches the
  object chain's ``sorted(keys)``);
* blocks are assembled directly as flat ``(block, entity)`` membership
  arrays — a block x entity CSR — via packed-key ``np.unique``, with no
  per-signature dict;
* Block Purging and Block Filtering are pure array passes over those
  memberships (per-block sizes/cardinalities with ``np.bincount``,
  per-entity retention ranks via ``np.lexsort``);
* distinct candidate pairs are extracted by chunked vectorized pair
  enumeration and packed-key ``np.unique`` dedup — bounded memory, no tuple
  sets;
* the entity x block CSR incidence structure of the final collection is
  built once and handed forward, so feature generation and the
  blocking-graph builder never re-derive it.

The object chain (``BlockingMethod.build_blocks``, ``purge_oversized_blocks``,
``filter_blocks``, ``CandidateSet.from_blocks``) stays as the reference: the
equivalence tests in ``tests/blocking/test_array_equivalence.py`` call it
directly and assert block-for-block and pair-for-pair identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..datamodel import (
    Block,
    BlockCollection,
    CandidateSet,
    EntityCollection,
    EntityIndexSpace,
)
from ..utils.timing import StageTimer
from ..weights.sparse import (
    EntityBlockCSR,
    entity_block_csr_from_memberships,
    expand_pair_chunks,
)
from .base import BlockingMethod
from .token_blocking import TokenBlocking

#: Upper bound on the number of packed pair keys buffered before a dedup
#: flush during candidate extraction (bounds peak memory).
DEFAULT_PAIR_CHUNK_KEYS: int = 1 << 22


def _dedup_sorted(ordered: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from an already-sorted array."""
    if ordered.size == 0:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    Equivalent to ``np.unique`` but via an explicit sort + adjacent-diff
    mask; NumPy's hash-based unique is several times slower on the packed
    int64 keys this module runs on.
    """
    if values.size == 0:
        return values
    return _dedup_sorted(np.sort(values))


#: Public alias: the incremental subsystem's bulk loader deduplicates its
#: membership and candidate-pair keys with the same sort + adjacent-diff
#: kernel block preparation uses.
sorted_unique = _sorted_unique


def _merge_sorted_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
    return _dedup_sorted(merged)


#: Public alias: the parallel engine folds per-worker key sets into a global
#: sorted union with the same two-way merge kernel.
merge_sorted_unique = _merge_sorted_unique


@dataclass
class MembershipMatrix:
    """A block collection as flat, distinct ``(block, entity)`` memberships.

    Memberships are sorted by (block id, node id); ``block_ptr`` is the CSR
    row-pointer over blocks, so block ``b`` spans
    ``nodes[block_ptr[b]:block_ptr[b+1]]`` (sorted node ids).  Block ids
    follow the lexicographic signature order for raw collections and the
    surviving loop-path order after purging/filtering, which keeps every
    materialized collection block-for-block identical to the object pipeline.
    """

    #: block signature per block id
    keys: List[str]
    #: CSR row pointers over blocks, shape ``(num_blocks + 1,)``
    block_ptr: np.ndarray
    #: block id per membership (sorted, aligned with ``nodes``)
    block_of: np.ndarray
    #: node id per membership
    nodes: np.ndarray
    index_space: EntityIndexSpace
    name: str

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return len(self.keys)

    def block_sizes(self) -> np.ndarray:
        """``|b|`` per block (number of entities, both sides)."""
        return np.diff(self.block_ptr)

    def first_side_sizes(self) -> np.ndarray:
        """Number of first-collection entities per block."""
        if not self.index_space.is_clean_clean:
            return self.block_sizes()
        mask = self.nodes < self.index_space.size_first
        return np.bincount(self.block_of[mask], minlength=self.num_blocks)

    def block_cardinalities(self) -> np.ndarray:
        """``||b||`` per block, matching :meth:`Block.cardinality` exactly.

        A block whose second side is empty is treated as unilateral (intra
        pairs over the first side), mirroring ``Block.is_bilateral`` — Block
        Filtering can strand clean-clean blocks in that state.
        """
        sizes = self.block_sizes()
        if not self.index_space.is_clean_clean:
            return sizes * (sizes - 1) // 2
        first = self.first_side_sizes()
        second = sizes - first
        return np.where(second > 0, first * second, first * (first - 1) // 2)

    def build_block_objects(self) -> List[Block]:
        """Build the equivalent list of object-based :class:`Block` items."""
        size_first = self.index_space.size_first
        bilateral = self.index_space.is_clean_clean
        blocks: List[Block] = []
        ptr = self.block_ptr
        for block_id, key in enumerate(self.keys):
            members = self.nodes[ptr[block_id] : ptr[block_id + 1]]
            if bilateral:
                split = int(np.searchsorted(members, size_first))
            else:
                split = members.size
            blocks.append(
                Block(
                    key=key,
                    entities_first=members[:split].tolist(),
                    entities_second=members[split:].tolist(),
                )
            )
        return blocks

    def materialize(self) -> BlockCollection:
        """Build the equivalent object-based :class:`BlockCollection`."""
        return BlockCollection(self.build_block_objects(), self.index_space, name=self.name)

    def csr(self) -> EntityBlockCSR:
        """The entity x block CSR incidence structure of this collection."""
        return entity_block_csr_from_memberships(
            self.nodes,
            self.block_of,
            self.index_space.total,
            self.num_blocks,
            assume_unique=True,
        )


class LazyBlockCollection(BlockCollection):
    """A :class:`BlockCollection` materialized from its matrix on demand.

    The array engine returns these for the raw/purged stages: production
    consumers only touch the final filtered collection, so the per-block
    object construction is deferred until something (tests, quality
    reports) actually reads the blocks.
    """

    def __init__(self, matrix: MembershipMatrix) -> None:
        self.name = matrix.name
        self.index_space = matrix.index_space
        self._matrix = matrix
        self._cache: Optional[List[Block]] = None

    @property
    def _blocks(self) -> List[Block]:
        if self._cache is None:
            self._cache = self._matrix.build_block_objects()
        return self._cache


def _matrix_from_sorted(
    keys: List[str],
    block_of: np.ndarray,
    nodes: np.ndarray,
    index_space: EntityIndexSpace,
    name: str,
) -> MembershipMatrix:
    """Assemble a matrix from memberships already sorted by (block, node)."""
    counts = np.bincount(block_of, minlength=len(keys))
    block_ptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=block_ptr[1:])
    return MembershipMatrix(
        keys=keys,
        block_ptr=block_ptr,
        block_of=block_of,
        nodes=nodes,
        index_space=index_space,
        name=name,
    )


def _dictionary_encode(
    method: BlockingMethod,
    first: EntityCollection,
    second: Optional[EntityCollection],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Batch-tokenize both collections into a token-id membership stream.

    Returns ``(codes, nodes, vocabulary)`` with one entry per signature
    occurrence (duplicates included); ``codes`` index the lexicographically
    sorted ``vocabulary``, so sorting by code reproduces the loop path's
    ``sorted(keys)`` block order.
    """
    code_of: Dict[str, int] = {}
    codes: List[int] = []
    lengths: List[int] = []

    def consume(collection: EntityCollection) -> None:
        setdefault = code_of.setdefault
        append = codes.append
        for signatures in method.signature_lists(collection):
            lengths.append(len(signatures))
            for signature in signatures:
                append(setdefault(signature, len(code_of)))

    consume(first)
    if second is not None:
        consume(second)

    lengths_arr = np.asarray(lengths, dtype=np.int64)
    # entity positions in concatenated (first, second) order ARE node ids
    nodes = np.repeat(np.arange(lengths_arr.size, dtype=np.int64), lengths_arr)
    codes_arr = np.asarray(codes, dtype=np.int64)

    vocabulary = sorted(code_of)
    if codes_arr.size:
        rank_of = {token: rank for rank, token in enumerate(vocabulary)}
        # code_of iterates in insertion order == first-seen code order
        remap = np.fromiter(
            (rank_of[token] for token in code_of), dtype=np.int64, count=len(code_of)
        )
        codes_arr = remap[codes_arr]
    return codes_arr, nodes, vocabulary


def assemble_blocks(
    method: BlockingMethod,
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
) -> MembershipMatrix:
    """Token Blocking (or any blocking method) as one array pass.

    Valid signatures — at least two distinct entities for Dirty ER, at least
    one entity per source for Clean-Clean ER — become blocks in sorted
    signature order, exactly like the loop path's
    ``build_unilateral_blocks``/``build_bilateral_blocks`` followed by
    ``without_empty_blocks``.
    """
    if second is None:
        index_space = EntityIndexSpace(len(first))
        name = f"{method.name}({first.name})"
    else:
        index_space = EntityIndexSpace(len(first), len(second))
        name = f"{method.name}({first.name},{second.name})"
    codes, nodes, vocabulary = _dictionary_encode(method, first, second)
    return assemble_from_codes(
        codes, nodes, vocabulary, index_space, name, bilateral=second is not None
    )


def assemble_from_codes(
    codes: np.ndarray,
    nodes: np.ndarray,
    vocabulary: List[str],
    index_space: EntityIndexSpace,
    name: str,
    bilateral: bool,
) -> MembershipMatrix:
    """Assemble blocks from a dictionary-encoded signature stream.

    ``codes`` index the lexicographically sorted ``vocabulary`` with one
    entry per signature occurrence (duplicates allowed), ``nodes`` are the
    matching global node ids.  This is the core of
    :func:`assemble_blocks`; the parallel engine calls it directly after
    merging per-shard token streams, so sharded and single-pass tokenization
    produce bit-identical matrices.
    """
    total = max(index_space.total, 1)
    num_codes = len(vocabulary)
    if codes.size:
        # distinct (code, node) memberships, sorted by code then node
        packed = _sorted_unique(codes * np.int64(total) + nodes)
        codes = packed // total
        nodes = packed % total

    if not bilateral:
        keep_code = np.bincount(codes, minlength=num_codes) >= 2
    else:
        size_first = index_space.size_first
        first_counts = np.bincount(codes[nodes < size_first], minlength=num_codes)
        second_counts = np.bincount(codes[nodes >= size_first], minlength=num_codes)
        keep_code = (first_counts >= 1) & (second_counts >= 1)

    keep_membership = keep_code[codes] if codes.size else np.zeros(0, dtype=bool)
    new_block_id = np.cumsum(keep_code) - 1
    block_of = new_block_id[codes[keep_membership]]
    kept_nodes = nodes[keep_membership]
    keys = [vocabulary[code] for code in np.flatnonzero(keep_code)]
    return _matrix_from_sorted(keys, block_of, kept_nodes, index_space, name)


def _select_blocks(
    matrix: MembershipMatrix, keep_block: np.ndarray, name: str
) -> MembershipMatrix:
    """Drop blocks by mask, renumbering ids but preserving relative order."""
    new_block_id = np.cumsum(keep_block) - 1
    keep_membership = keep_block[matrix.block_of]
    block_of = new_block_id[matrix.block_of[keep_membership]]
    nodes = matrix.nodes[keep_membership]
    keys = [key for key, keep in zip(matrix.keys, keep_block) if keep]
    return _matrix_from_sorted(keys, block_of, nodes, matrix.index_space, name)


def purge_matrix(
    matrix: MembershipMatrix, max_entity_fraction: float = 0.5
) -> MembershipMatrix:
    """Block Purging as an array pass (see :func:`purge_oversized_blocks`)."""
    if not 0.0 < max_entity_fraction <= 1.0:
        raise ValueError("max_entity_fraction must be in (0, 1]")
    limit = max_entity_fraction * matrix.index_space.total
    keep_block = matrix.block_sizes() <= limit
    return _select_blocks(matrix, keep_block, f"{matrix.name}|purged")


def filter_matrix(matrix: MembershipMatrix, ratio: float = 0.8) -> MembershipMatrix:
    """Block Filtering as an array pass (see :func:`filter_blocks`).

    Every entity keeps its ``ceil(ratio * k)`` smallest blocks (ties broken
    by block id); blocks left without a comparison are dropped.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    if matrix.num_blocks == 0:
        return matrix

    cardinalities = matrix.block_cardinalities()
    total = max(matrix.index_space.total, 1)
    # memberships ordered per entity by (cardinality, block id)
    order = np.lexsort((matrix.block_of, cardinalities[matrix.block_of], matrix.nodes))
    sorted_nodes = matrix.nodes[order]
    counts = np.bincount(matrix.nodes, minlength=matrix.index_space.total)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    rank = np.arange(sorted_nodes.size, dtype=np.int64) - starts[sorted_nodes]
    keep_counts = np.maximum(1, np.ceil(ratio * counts)).astype(np.int64)
    keep = rank < keep_counts[sorted_nodes]

    # retained memberships back in (block, node) order
    packed = np.sort(matrix.block_of[order][keep] * np.int64(total) + sorted_nodes[keep])
    interim = _matrix_from_sorted(
        list(matrix.keys),
        packed // total,
        packed % total,
        matrix.index_space,
        f"{matrix.name}|filtered",
    )
    return _select_blocks(interim, interim.block_cardinalities() > 0, interim.name)


def pair_expansion_plan(
    matrix: MembershipMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-membership pair-expansion plan: ``(repeats, right_begin, offsets)``.

    Every membership is assigned the pairs it is the *left* endpoint of —
    the cross product with the block's second side for bilateral blocks,
    the strictly-later members of the (sorted) block for intra blocks —
    giving a per-membership repeat count, the start of its contiguous
    right-hand slice in the flat ``nodes`` array, and the exclusive prefix
    sum of the repeats (``offsets``, length ``n_memberships + 1``).  Both the
    serial extraction below and the sharded extraction of
    :mod:`repro.parallel.blocking` expand from this plan, which is why any
    contiguous partitioning of the memberships yields the same pair set.
    """
    nodes = matrix.nodes
    n_memberships = nodes.size
    sizes = matrix.block_sizes()
    first = matrix.first_side_sizes()
    second = sizes - first
    block_starts = np.repeat(matrix.block_ptr[:-1], sizes)
    positions = np.arange(n_memberships, dtype=np.int64)
    intra_rank = positions - block_starts

    block_of = matrix.block_of
    is_cross = second[block_of] > 0
    # cross blocks: first-side members pair with the whole second side,
    # which occupies nodes[block_start + first : block_end] (node ids are
    # sorted, first-source ids are smaller); second-side members emit
    # nothing.  intra blocks (Dirty ER, or clean-clean blocks whose second
    # side was emptied by filtering — Block.is_bilateral flips) pair each
    # member with the strictly-later members of its block.
    repeats = np.where(
        is_cross,
        np.where(intra_rank < first[block_of], second[block_of], 0),
        sizes[block_of] - 1 - intra_rank,
    )
    right_begin = np.where(is_cross, block_starts + first[block_of], positions + 1)

    pair_offsets = np.zeros(n_memberships + 1, dtype=np.int64)
    np.cumsum(repeats, out=pair_offsets[1:])
    return repeats, right_begin, pair_offsets


def extract_candidate_keys(
    matrix: MembershipMatrix, chunk_keys: int = DEFAULT_PAIR_CHUNK_KEYS
) -> np.ndarray:
    """The distinct candidate pairs as sorted packed ``i * total + j`` keys.

    The expansion follows :func:`pair_expansion_plan` through
    :func:`repro.weights.sparse.expand_pair_chunks` — membership chunks of
    at most roughly ``chunk_keys`` pairs, flushed through a sorted-unique
    pass into a running union: no per-block Python, and peak memory bounded
    by the chunk size plus the *distinct* pair set — never by the raw
    (redundancy-bearing) comparison count.
    """
    total = np.int64(max(matrix.index_space.total, 1))
    nodes = matrix.nodes
    n_memberships = nodes.size
    if n_memberships == 0 or matrix.num_blocks == 0:
        return np.empty(0, dtype=np.int64)

    repeats, right_begin, pair_offsets = pair_expansion_plan(matrix)

    seen: np.ndarray = np.empty(0, dtype=np.int64)
    for _, _, left, right in expand_pair_chunks(
        nodes, repeats, right_begin, pair_offsets, chunk_keys
    ):
        seen = _merge_sorted_unique(seen, _sorted_unique(left * total + right))
    return seen


def matrix_from_csr(csr: EntityBlockCSR, blocks: BlockCollection) -> MembershipMatrix:
    """Transpose the entity x block CSR of ``blocks`` into its membership matrix.

    The inverse of :meth:`MembershipMatrix.csr`, for collections that did not
    come out of this module (sides follow the index space: first-source node
    ids are the ones below ``size_first``).
    """
    total = np.int64(max(blocks.index_space.total, 1))
    row_of = np.repeat(np.arange(csr.num_entities, dtype=np.int64), np.diff(csr.indptr))
    packed = np.sort(csr.indices * total + row_of)
    return _matrix_from_sorted(
        [block.key for block in blocks],
        packed // total,
        packed % total,
        blocks.index_space,
        blocks.name,
    )


@dataclass
class ArrayPreparation:
    """Raw output of the array block-preparation engine."""

    raw: BlockCollection
    purged: BlockCollection
    filtered: BlockCollection
    candidates: CandidateSet
    #: entity x block CSR of ``filtered``, handed forward to feature
    #: generation and the blocking-graph builder
    csr: EntityBlockCSR


def prepare_blocks_array(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    blocking: Optional[BlockingMethod] = None,
    purging_fraction: float = 0.5,
    filtering_ratio: float = 0.8,
    apply_purging: bool = True,
    apply_filtering: bool = True,
    timer: Optional[StageTimer] = None,
) -> ArrayPreparation:
    """Run the paper's block-preparation pipeline array-natively.

    Produces bit-identical blocks and candidate pairs to the loop path (see
    the module docstring), plus the final collection's CSR incidence
    structure.  Per-stage wall-clock is recorded on ``timer`` when given.
    """
    timer = timer if timer is not None else StageTimer()
    method = blocking if blocking is not None else TokenBlocking()

    with timer.stage("blocking"):
        raw_matrix = assemble_blocks(method, first, second)
        raw = LazyBlockCollection(raw_matrix)

    with timer.stage("purging"):
        if apply_purging:
            purged_matrix = purge_matrix(raw_matrix, purging_fraction)
            purged = LazyBlockCollection(purged_matrix)
        else:
            purged_matrix, purged = raw_matrix, raw

    with timer.stage("filtering"):
        if apply_filtering:
            filtered_matrix = filter_matrix(purged_matrix, filtering_ratio)
            filtered = (
                purged if filtered_matrix is purged_matrix else filtered_matrix.materialize()
            )
        else:
            filtered_matrix, filtered = purged_matrix, purged

    with timer.stage("candidate-extraction"):
        keys = extract_candidate_keys(filtered_matrix)
        candidates = CandidateSet.from_packed_keys(keys, filtered_matrix.index_space)
        csr = filtered_matrix.csr()

    return ArrayPreparation(
        raw=raw, purged=purged, filtered=filtered, candidates=candidates, csr=csr
    )
