"""Array-native block preparation.

Token Blocking -> Block Purging -> Block Filtering -> candidate extraction
as batched array passes, with no per-entity token sets, dict-of-lists
signature index, per-block loops or Python set of pair tuples:

* **tokenise**: one token list per profile, a byte-table ``translate`` +
  ``split`` of its text (:func:`repro.utils.text.tokens`);
* **encode**: :func:`encode_signatures` turns the lists into a token-id
  array at C speed — the flattened lists, their sorted set as the
  vocabulary, the ranks looked up with ``map`` (sorted-vocabulary ranks, so
  blocks come in sorted signature order);
* **assemble**: blocks are built directly as flat ``(block, entity)``
  membership arrays — a block x entity CSR — via packed-key sorted dedup,
  with no per-signature dict;
* Block Purging and Block Filtering are the membership-level kernel of
  :mod:`repro.blocking.cleaning`, which the streamed answer runs too
  (per-block sizes/cardinalities with ``np.bincount``).  Block Filtering
  sorts once: the blocks are ranked by (cardinality, member-set key) —
  never by block id — the memberships ordered per entity by one ``argsort``
  of the packed ``(node, block rank)`` key, and the keep decision scattered
  back onto the memberships, which already are in (block, node) order;
* the comparisons are expanded **once** (:mod:`repro.pairs`) and reduced
  by one sort: the run boundaries are the distinct candidate pairs, the
  run sums their co-occurrence aggregates (:func:`reduce_candidates`) —
  bounded memory, no tuple sets, no second expansion in the answer phase;
* what the answer phase needs rides forward on :class:`PreparedBlocks`
  (entity x block CSR, candidates, aggregates), and every stage's blocks
  are its :class:`MembershipMatrix` — the one block representation of the
  library.

Every packed key asks :func:`repro.pairs.key_field_bits` for its field
widths; a refusal raises :class:`OverflowError` (or, for the reduce pass,
takes the path that needs no such key).

This is the one implementation of block preparation.  Its oracle is built
from the paper's definitions in ``tests/reference.py``
(``reference_prepare_blocks``): a dict per signature, purging and filtering
over each block's member lists, the Python set of every block's
comparisons; ``tests/blocking/test_array_equivalence.py`` asserts
block-for-block and pair-for-pair identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..datamodel.entity import EntityCollection, EntityIndexSpace
from ..utils.text import tokens
from ..utils.timing import StageTimer
from ..pairs import key_field_bits, sorted_unique
from ..weights.sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    entity_block_csr_from_memberships,
    inverse_block_weights,
    reduce_blocks,
)
from .cleaning import (
    block_cardinalities,
    check_filtering_ratio,
    filter_mask,
    purge_mask,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..weights.statistics import BlockStatistics

#: Upper bound on the number of packed pair keys buffered before a dedup
#: flush during candidate extraction (bounds peak memory).
DEFAULT_PAIR_CHUNK_KEYS: int = 1 << 22


@dataclass(eq=False)
class MembershipMatrix:
    """A block collection as flat, distinct ``(block, entity)`` memberships.

    Memberships are sorted by (block id, node id); ``block_ptr`` is the CSR
    row-pointer over blocks, so block ``b`` spans
    ``nodes[block_ptr[b]:block_ptr[b+1]]`` (sorted node ids).  Block ids
    follow the lexicographic signature order for raw collections, and
    purging / filtering keep the survivors in that relative order.  In
    Clean-Clean ER a block's first-collection members are the node ids
    below ``index_space.size_first``.  Equality is identity: compare two
    matrices array by array.
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

    def __len__(self) -> int:
        return self.num_blocks

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
        """``||b||`` per block: first x second in Clean-Clean ER.

        A block whose second side is empty is treated as unilateral (intra
        pairs over the first side) — Block Filtering can strand clean-clean
        blocks in that state.
        """
        return block_cardinalities(
            self.block_sizes(), self.first_side_sizes(), self.index_space.is_clean_clean
        )

    def csr(self) -> EntityBlockCSR:
        """The entity x block CSR incidence structure of this collection."""
        return entity_block_csr_from_memberships(
            self.nodes,
            self.block_of,
            self.index_space.total,
            self.num_blocks,
            assume_unique=True,
        )


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


def encode_signatures(
    signature_lists: Sequence[Sequence[str]],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Dictionary-encode per-profile signature lists: ``(codes, lengths, vocabulary)``.

    ``codes`` holds one entry per signature occurrence (duplicates included,
    input order) and indexes the lexicographically sorted ``vocabulary``, so
    sorting by code yields the blocks in sorted signature order; ``lengths``
    is the number of signatures per profile.  The ranks are looked up by
    ``map`` over the flattened lists — no per-token Python.
    """
    lengths = np.fromiter(map(len, signature_lists), np.int64, len(signature_lists))
    flat = list(chain.from_iterable(signature_lists))
    vocabulary = sorted(set(flat))
    rank_of = dict(zip(vocabulary, range(len(vocabulary))))
    codes = np.fromiter(map(rank_of.__getitem__, flat), np.int64, len(flat))
    return codes, lengths, vocabulary


def _dictionary_encode(
    first: EntityCollection,
    second: Optional[EntityCollection],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Batch-tokenize both collections into a token-id membership stream.

    Returns ``(codes, nodes, vocabulary)``: :func:`encode_signatures` over
    the token lists of the concatenated (first, second) profiles, whose
    positions ARE the node ids.
    """
    profiles = first if second is None else chain(first, second)
    codes, lengths, vocabulary = encode_signatures(
        [tokens(profile.text()) for profile in profiles]
    )
    nodes = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    return codes, nodes, vocabulary


def assemble_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
) -> MembershipMatrix:
    """Token Blocking as one array pass.

    Valid signatures — at least two distinct entities for Dirty ER, at least
    one entity per source for Clean-Clean ER — become blocks in sorted
    signature order (a signature that spawns no comparison makes no block).
    """
    if second is None:
        index_space = EntityIndexSpace(len(first))
        name = f"token-blocking({first.name})"
    else:
        index_space = EntityIndexSpace(len(first), len(second))
        name = f"token-blocking({first.name},{second.name})"
    codes, nodes, vocabulary = _dictionary_encode(first, second)
    num_codes = len(vocabulary)
    if codes.size:
        bits = key_field_bits(num_codes, index_space.total)
        if bits is None:
            raise OverflowError(
                f"(signature, node) keys over {num_codes} x {index_space.total} do not fit an int64"
            )
        node_bits = bits[1]
        # distinct (code, node) memberships, sorted by code then node
        packed = sorted_unique((codes << node_bits) | nodes)
        codes = packed >> node_bits
        nodes = packed & ((1 << node_bits) - 1)

    if second is None:
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
    """Block Purging as an array pass: the blocks of at most
    ``max_entity_fraction`` of all entities (:func:`~repro.blocking.cleaning.purge_mask`)."""
    keep_block = purge_mask(matrix.block_sizes(), matrix.index_space.total, max_entity_fraction)
    return _select_blocks(matrix, keep_block, f"{matrix.name}|purged")


def filter_matrix(matrix: MembershipMatrix, ratio: float = 0.8) -> MembershipMatrix:
    """Block Filtering as an array pass.

    Every entity keeps its ``ceil(ratio * k)`` smallest blocks, ranked by
    (cardinality, member-set key) — :func:`repro.blocking.cleaning.filter_mask`,
    the kernel the streamed answer runs; blocks left without a comparison
    are dropped.
    """
    check_filtering_ratio(ratio)
    if matrix.num_blocks == 0:
        return matrix
    keep = filter_mask(
        matrix.nodes,
        matrix.block_of,
        matrix.block_sizes(),
        matrix.block_cardinalities(),
        matrix.index_space.total,
        ratio,
    )
    interim = _matrix_from_sorted(
        list(matrix.keys),
        matrix.block_of[keep],
        matrix.nodes[keep],
        matrix.index_space,
        f"{matrix.name}|filtered",
    )
    return _select_blocks(interim, interim.block_cardinalities() > 0, interim.name)


def reduce_candidates(
    matrix: MembershipMatrix, csr: EntityBlockCSR
) -> Tuple[CandidateSet, Optional[PairCooccurrence]]:
    """The distinct candidate pairs of ``matrix`` *and* their aggregates.

    One expansion serves both: :func:`repro.weights.sparse.reduce_blocks` —
    the reduction the streamed answer runs over its cleaned live rows —
    yields the distinct pairs, sorted by (left, right), with their
    co-occurrence aggregates, or the pairs alone when the key does not fit
    (the answer phase then computes the aggregates).
    """
    index_space = matrix.index_space
    sizes = matrix.block_sizes()
    weights = (
        inverse_block_weights(matrix.block_cardinalities()),
        inverse_block_weights(sizes),
    )
    left, right, aggregates = reduce_blocks(
        matrix.nodes,
        matrix.block_of,
        sizes,
        matrix.first_side_sizes(),
        index_space.total,
        index_space.size_first if index_space.is_clean_clean else None,
        weights,
        lambda: csr,
        DEFAULT_PAIR_CHUNK_KEYS,
    )
    return CandidateSet(left, right, index_space), aggregates


@dataclass(eq=False)
class PreparedBlocks:
    """Output of the standard block-preparation pipeline."""

    #: the raw blocks Token Blocking produced
    raw_blocks: MembershipMatrix
    #: blocks surviving Block Purging
    purged_blocks: MembershipMatrix
    #: blocks surviving Block Filtering — the collection Meta-blocking refines
    blocks: MembershipMatrix
    #: the distinct candidate pairs of ``blocks``
    candidates: CandidateSet
    #: entity x block CSR of ``blocks``, prebuilt by the preparation and
    #: reused by feature generation (statistics build it themselves when a
    #: hand-assembled instance leaves it ``None``)
    csr: Optional[EntityBlockCSR] = None
    #: co-occurrence aggregates of ``candidates``, reduced by the preparation
    #: from the expansion that found them (``None``: computed by the
    #: statistics on first use)
    cooccurrence: Optional[PairCooccurrence] = None
    #: per-stage wall-clock of the preparation (blocking, purging,
    #: filtering, candidate-extraction)
    timer: Optional[StageTimer] = None
    _stats: Optional["BlockStatistics"] = field(default=None, init=False, repr=False)

    def statistics(self) -> "BlockStatistics":
        """Block statistics of ``blocks``, reusing what was prepared (cached).

        This is the handoff contract: statistics created here read the
        filtered collection's memberships as the preparation holds them and
        inherit :attr:`csr`, :attr:`candidates` and :attr:`cooccurrence`, so
        a pipeline run over this preparation never rebuilds the incidence
        structure, reads LCP as the degree of each node in the candidate
        pairs already extracted and finds the pairs' co-occurrence
        aggregates cached.
        """
        if self._stats is None:
            from ..weights.statistics import BlockStatistics

            blocks = self.blocks
            space = blocks.index_space
            self._stats = BlockStatistics(
                blocks.nodes,
                blocks.block_of,
                blocks.block_sizes(),
                blocks.block_cardinalities(),
                (np.arange(space.total) >= space.size_first).astype(np.int8),
                self.candidates,
                self.cooccurrence,
                self.csr,
            )
        return self._stats
