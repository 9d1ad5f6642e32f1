"""The read state of a streaming index, stated once.

Every weighting scheme of the paper is a function of the same few block
co-occurrence statistics (``|B_i|``, ``||e_i||``, ``Σ 1/||b||``, ``Σ 1/|b|``,
LCP, ``|B|``, ``||B||``), and a streamed, sharded, recovered or served answer
equals the batch one only because every execution mode hands the schemes
those statistics identically.  :class:`IndexState` is that hand-over as one
type: three arrays — the entity x block CSR (``indptr``, ``indices``) and the
side flags — a handful of scalars and the whole read surface over them:
registry one-liners, canonical renumbering, the CSR and
:class:`IndexStatistics`.  Every statistic is *derived* from the rows read,
the live candidate set included (:meth:`IndexStatistics.live_candidates`): no
index stores its pairs or its per-entity aggregates.  A mutation reports the
pairs it created or retracted by packed pair key, and the session keys what
per-pair state it keeps by them.

Export layout (the read state a serving view is built from):
:meth:`IndexState.export_state` ships the three arrays of ``APPENDED`` plus
the scalars ``num_slots``, ``num_blocks``, ``epoch``, ``bilateral`` and
``side_counts``;
:meth:`MutableBlockIndex.export_delta <repro.incremental.MutableBlockIndex.export_delta>`
ships the appended ``<name>_tail`` of each of them and the
``tombstoned_nodes``.  Per-block vectors, member lists and block keys never
leave the index.  :meth:`IndexState.apply_full` and
:meth:`IndexState.apply_delta` are the receiving end; a ship whose counts
disagree with the arrays it produced, or whose CSR is not self-consistent, is
refused *before* any scalar — the epoch, i.e. the next read's base, among
them — is adopted, so readers only ever see a state at a boundary the writer
published.

The index *is* a state: :class:`~repro.incremental.MutableBlockIndex`
subclasses :class:`IndexState` and adds what only a writer needs (the token
dictionary, member lists, per-block vectors, maintained degrees, WAL hook,
delta tracker), so its mutation code writes the very fields a reader reads,
"the shipped state equals the worker's state" is a comparison of two objects
of one type, and no delegation layer sits between them.  The router's
resident per-shard copy is a bare :class:`IndexState` advanced by
:meth:`~IndexState.apply_delta`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..blocking.cleaning import NO_CLEANING, BlockCleaning, CleanedBlocks, clean_memberships
from ..core.pruning.base import BlockTotals
from ..datamodel.candidates import CandidateSet
from ..datamodel.entity import EntityIndexSpace
from ..pairs import sorted_unique
from ..weights.sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    PairCooccurrenceCache,
    entity_block_csr_from_memberships,
    entity_sums,
    gather_rows,
    inverse_block_weights,
    reduce_blocks,
    transposed_memberships,
)


class IndexStateError(RuntimeError):
    """A shipped state does not fit the state it was applied to."""


class Growable:
    """An append-only NumPy array with amortised O(1) growth.

    ``view()`` returns a zero-copy view of the active prefix; the view is
    invalidated by the next append that triggers a reallocation, so callers
    must not hold it across inserts.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, dtype, capacity: int = 64) -> None:
        self._data = np.zeros(max(1, capacity), dtype=dtype)
        self._size = 0

    @classmethod
    def of(cls, values: np.ndarray, dtype=None) -> "Growable":
        """A growable holding a copy of ``values`` (as ``dtype``, if given)."""
        values = np.asarray(values, dtype=dtype)
        cell = cls(values.dtype, capacity=values.size)
        cell.extend(values)
        return cell

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed > self._data.size:
            capacity = self._data.size
            while capacity < needed:
                capacity *= 2
            grown = np.zeros(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown

    def append(self, value) -> None:
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._reserve(values.size)
        self._data[self._size : self._size + values.size] = values
        self._size += values.size

    def view(self) -> np.ndarray:
        return self._data[: self._size]

    def __getitem__(self, key):
        return self.view()[key]

    def __setitem__(self, key, value):
        self.view()[key] = value


# -- the schema: (wire name, field, dtype, initial capacity) of the three arrays --
#: arrays that only grow at the end and ship whole or as ``<name>_tail``: the
#: entity x block CSR (rows in arrival order, sorted ids per row; the rows of
#: removed entities are left behind) and the side flags (node ids are never
#: reused: a removed slot keeps side -1, which is what keeps its row out of
#: every read)
APPENDED = (
    ("indptr", "_indptr", np.int64, 256),
    ("indices", "_indices", np.int64, 1024),
    ("sides", "_sides", np.int8, 64),
)
#: the arrays a ship of each kind holds: :meth:`IndexState.export_state`'s
#: and :meth:`~repro.incremental.MutableBlockIndex.export_delta`'s
SHIPS = {
    "full": frozenset(name for name, _, _, _ in APPENDED),
    "delta": frozenset([*(f"{name}_tail" for name, _, _, _ in APPENDED), "tombstoned_nodes"]),
}


def merged_csr(states: Sequence["IndexState"]) -> EntityBlockCSR:
    """The entity x block CSR over ``states``.

    One state: its own zero-copy views.  Several (signature shards: identical
    node ids, disjoint blocks): the row-wise concatenation of the shard CSRs
    with shard-major block-id offsets.
    """
    if len(states) == 1:
        return states[0].csr()
    node_parts, block_parts, offset = [], [], 0
    for state in states:
        csr = state.csr()
        counts = np.diff(csr.indptr)
        node_parts.append(np.repeat(np.arange(counts.size, dtype=np.int64), counts))
        block_parts.append(csr.indices + offset)
        offset += csr.num_blocks
    return entity_block_csr_from_memberships(
        np.concatenate(node_parts),
        np.concatenate(block_parts),
        states[0].num_slots,
        offset,
        assume_unique=True,
    )


class LiveCandidates(CandidateSet):
    """The live candidate pairs of a streaming index, derived from its CSR.

    Raw streaming node ids in the batch pipeline's candidate order.  Aligned
    with them: :attr:`canonical`, the very pairs in the compact batch numbering
    (what batch pruning takes, packed-key tie-breaking included), and
    :attr:`first` / :attr:`second`, the raw endpoints in reporting order —
    (first side, second side) when bilateral, arrival order otherwise.
    """

    def __init__(self, active: np.ndarray, left: np.ndarray, right: np.ndarray, index_space):
        self.first, self.second = first, second = active[left], active[right]
        super().__init__(np.minimum(first, second), np.maximum(first, second), index_space)
        self.canonical = CandidateSet(left, right, index_space)

    def id_pairs(self, mask: np.ndarray, entity_id: Callable[[int], str]) -> List[Tuple[str, str]]:
        """Entity-id tuples of the pairs selected by ``mask``, in reporting order."""
        return [
            (entity_id(i), entity_id(j))
            for i, j in zip(self.first[mask].tolist(), self.second[mask].tolist())
        ]


class IndexStatistics:
    """Read-only statistics over one :class:`IndexState` or several shards.

    The subset of :class:`repro.weights.BlockStatistics` the vectorized
    scheme implementations consume, in two regimes with one code path each.

    The *exact read* (the default) holds the statistics of the live
    collection read under a :class:`~repro.blocking.cleaning.BlockCleaning`,
    :data:`~repro.blocking.cleaning.NO_CLEANING` and K merged shards included:
    construction runs :func:`~repro.blocking.cleaning.clean_memberships` over
    the live rows in the canonical batch numbering, and every per-entity
    aggregate, ``|B|``, ``||B||``, :meth:`block_totals` and LCP is read off
    the blocks it leaves — what ``prepare_blocks`` with that cleaning hands
    the batch pipeline.  Cleaned blocks are numbered by (cardinality,
    member-set key) and raw ones keep their relative order, so no shard count
    changes the order any sum is added in.

    The *insert-time read* (``rows`` given: one
    :class:`~repro.incremental.MutableBlockIndex`, raw blocks) is what a
    streamed insert scores its delta against.  The per-entity aggregates are
    the writer's per-block vectors summed over the CSR rows of ``rows`` only
    — blocks spawning no comparison masked, as the exact read drops them — so
    it costs O(Σ those rows) and never reads the whole collection; ``|B|`` and
    ``||B||`` are the writer's two maintained integers and LCP its maintained
    degrees.  At ``rows`` the values equal the exact read's without cleaning
    bit for bit (each row's terms added in ascending block id, as there);
    elsewhere the per-entity arrays hold zeros.

    Obtain a fresh view per feature computation (``statistics()``): the
    arrays cover every node slot ever assigned; tombstoned slots hold zeros
    and are in no live candidate pair.
    """

    def __init__(
        self,
        states: Sequence["IndexState"],
        cleaning: BlockCleaning = NO_CLEANING,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        self._states = states
        self.cleaning = cleaning
        self._pair_cache = PairCooccurrenceCache()
        self._degrees: Optional[np.ndarray] = None
        self._live: Optional[LiveCandidates] = None
        state = states[0]
        if rows is None:
            active, _, blocks = self._read
            nodes, block_of = active[blocks.nodes], blocks.block_of
            per_block = (blocks.cardinalities, *self._inverse_weights(blocks))
            #: ``|B|`` — blocks spawning at least one comparison
            self.num_blocks = blocks.num_blocks
            #: ``||B||`` — the total number of comparisons
            self.total_cardinality = float(blocks.cardinalities.sum())
            self._totals = BlockTotals(int(nodes.size), active.size)
        else:
            rows = sorted_unique(rows)
            csr = state.csr()
            per_block = (
                state._block_cardinalities.view(),
                state._inverse_block_cardinalities.view(),
                state._inverse_block_sizes.view(),
            )
            positions, block_of = gather_rows(csr, rows)
            spawning = per_block[0][block_of] > 0
            nodes, block_of = rows[positions[spawning]], block_of[spawning]
            self.num_blocks = state.num_nonempty_blocks
            self.total_cardinality = float(state.total_cardinality)
            self._degrees = state._degrees.view()
            # the collection read is the raw CSR: what _merged holds otherwise
            self._merged = (csr, *per_block[1:])
        (
            self.blocks_per_entity,
            self.entity_cardinality,
            self.entity_inv_cardinality,
            self.entity_inv_size,
        ) = entity_sums(nodes, block_of, per_block, state.num_slots)

    @staticmethod
    def _inverse_weights(blocks: CleanedBlocks) -> Tuple[np.ndarray, np.ndarray]:
        return (
            inverse_block_weights(blocks.cardinalities),
            inverse_block_weights(blocks.sizes),
        )

    @cached_property
    def _read(self) -> Tuple[np.ndarray, int, CleanedBlocks]:
        """``(active, n_first, blocks)``: the live nodes (canonical order) and
        the blocks read under this view's cleaning, nodes as canonical ids."""
        state = self._states[0]
        sides = state.sides()
        csr = merged_csr(self._states)
        active, n_first, nodes, block_of = transposed_memberships(csr, sides >= 0, sides == 1)
        blocks = clean_memberships(
            nodes,
            block_of,
            csr.num_blocks,
            active.size,
            n_first if state.bilateral else None,
            self.cleaning,
        )
        return active, n_first, blocks

    @cached_property
    def _merged(self) -> Tuple[EntityBlockCSR, np.ndarray, np.ndarray]:
        """The CSR (raw node ids) and inverse block weights of the blocks
        this view reads."""
        active, _, blocks = self._read
        csr = entity_block_csr_from_memberships(
            active[blocks.nodes],
            blocks.block_of,
            self._states[0].num_slots,
            blocks.num_blocks,
            assume_unique=True,
        )
        return (csr, *self._inverse_weights(blocks))

    def block_totals(self) -> BlockTotals:
        """``Σ|b|`` and ``|E1|+|E2|`` of the collection read — what
        cardinality-based pruning derives its budgets from."""
        return self._totals

    def live_candidates(self) -> LiveCandidates:
        """Every live distinct candidate pair, derived on first use.

        One reduce pass (:func:`repro.weights.sparse.reduce_blocks`, the one
        block preparation runs) over the blocks read yields the pairs in
        batch numbering and order *and* their co-occurrence aggregates,
        seeded into this view's cache for the schemes to find; a refused key
        yields the pairs alone and :meth:`pair_cooccurrence` computes.
        """
        if self._live is None:
            state = self._states[0]
            active, n_first, blocks = self._read
            left, right, aggregates = reduce_blocks(
                blocks.nodes,
                blocks.block_of,
                blocks.sizes,
                blocks.first_sizes,
                active.size,
                n_first if state.bilateral else None,
                self._inverse_weights(blocks),
                lambda: entity_block_csr_from_memberships(
                    blocks.nodes, blocks.block_of, active.size, blocks.num_blocks,
                    assume_unique=True,
                ),
            )
            self._live = LiveCandidates(active, left, right, state.index_space())
            if aggregates is not None:
                self._pair_cache.seed(self._live, aggregates)
        return self._live

    def counterparts(self, node: int) -> np.ndarray:
        """The live nodes ``node`` forms a candidate pair with, ascending:
        whoever shares one of its blocks read (on the other side of a
        bilateral index, unless Block Filtering stranded the block with one
        side), read off the CSR; none for a removed node."""
        state = self._states[0]
        sides = state.sides()
        side = int(sides[node])
        if side < 0:
            return np.empty(0, dtype=np.int64)
        csr = self._merged[0]
        row = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
        members = np.flatnonzero(np.isin(csr.indices, row))
        member_nodes = np.searchsorted(csr.indptr, members, side="right") - 1
        stranded_with = np.empty(0, dtype=np.int64)
        if state.bilateral:
            blocks = self._read[2]
            stranded = (blocks.first_sizes == blocks.sizes)[csr.indices[members]]
            stranded_with, member_nodes = member_nodes[stranded], member_nodes[~stranded]
        shares = np.zeros(sides.size, dtype=bool)
        shares[member_nodes] = True
        shares &= sides == 1 - side if state.bilateral else sides >= 0
        shares[stranded_with] = True
        shares[node] = False
        return np.flatnonzero(shares)

    def local_candidate_counts_sparse(self) -> np.ndarray:
        """``LCP(e_i)`` — distinct candidates read per node slot."""
        if self._degrees is None:
            live = self.live_candidates()
            self._degrees = np.bincount(
                np.concatenate((live.left, live.right)), minlength=self._states[0].num_slots
            ).astype(np.float64)
        return self._degrees

    def pair_cooccurrence(self, candidates: CandidateSet) -> PairCooccurrence:
        """Batched co-occurrence aggregates via the sparse intersection kernel.

        Cached per candidate-set object (weakly referenced) so the schemes of
        one feature computation share a single intersection pass, exactly as
        :meth:`repro.weights.BlockStatistics.pair_cooccurrence` does.
        """
        held = self._pair_cache.cached(candidates)
        if held is not None:
            return held
        return self._pair_cache.get(candidates, *self._merged, self._states[0].sides())


class IndexState:
    """The arrays and scalars a reader of a streaming index needs, and every
    read over them.

    A bare state is a receiver: :meth:`apply_full` (re)builds it from a
    complete ship and :meth:`apply_delta` advances it in place — appended
    slot / CSR tails and tombstones — so a warm read costs O(changed), not
    O(state).  :class:`~repro.incremental.MutableBlockIndex` is the state
    that mutates itself (and must never be handed to ``apply_*``).
    """

    def __init__(self, bilateral: bool = False) -> None:
        self.bilateral = bilateral
        for _, field, dtype, capacity in APPENDED:
            setattr(self, field, Growable(dtype, capacity))
        self._indptr.append(0)
        #: live entities per side (ids are namespaced per side)
        self._side_counts = [0, 0]
        #: the block count a ship reports (a writer counts its own blocks)
        self._num_blocks = 0
        #: bumped by every applied mutation: the base a delta is shipped against
        self.epoch: int = 0

    # -- registry ----------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        """Number of *live* entities (inserted and not removed)."""
        return self._side_counts[0] + self._side_counts[1]

    @property
    def num_slots(self) -> int:
        """Number of node ids ever assigned, including tombstoned slots."""
        return len(self._sides)

    @property
    def num_blocks(self) -> int:
        """Number of blocks, including those spawning no comparison yet."""
        return self._num_blocks

    def side_of(self, node: int) -> int:
        """0 for first-collection nodes, 1 for second-collection nodes.

        Tombstoned slots report -1.
        """
        return int(self._sides[node])

    def is_live(self, node: int) -> bool:
        """Whether the node slot currently holds a live entity."""
        return int(self._sides[node]) >= 0

    def sides(self) -> np.ndarray:
        """Per-node side flags (0 = first, 1 = second, -1 = removed)."""
        return self._sides.view()

    def index_space(self) -> EntityIndexSpace:
        """An index space sized to the *live* per-side totals.

        Streaming assigns node ids in arrival order (sides may interleave and
        removed slots are never reused), so raw node ids do not fit this
        space — only its totals are meaningful.  The
        :meth:`canonical_node_ids` mapping renumbers live nodes into it.
        """
        if self.bilateral:
            return EntityIndexSpace(self._side_counts[0], self._side_counts[1])
        return EntityIndexSpace(self._side_counts[0])

    def canonical_node_ids(self) -> np.ndarray:
        """Map every node slot to its compact batch node id (-1 when dead).

        Live first-collection nodes get 0..n1-1 in arrival order, live
        second-collection nodes n1..n1+n2-1 — the numbering the batch pipeline
        assigns the surviving entities in arrival order, and the one the
        derived candidate set's canonical twin comes in.
        """
        sides = self._sides.view()
        canonical = np.full(sides.size, -1, dtype=np.int64)
        first_nodes = np.flatnonzero(sides == 0)
        canonical[first_nodes] = np.arange(first_nodes.size, dtype=np.int64)
        second_nodes = np.flatnonzero(sides == 1)
        canonical[second_nodes] = first_nodes.size + np.arange(
            second_nodes.size, dtype=np.int64
        )
        return canonical

    # -- read-side structures ----------------------------------------------------
    def csr(self) -> EntityBlockCSR:
        """The current entity x block incidence structure (zero-copy views).

        Rows of removed entities are left behind: the structure is safe to
        intersect over any live pair, and a census of live memberships only
        under ``sides() >= 0``.
        """
        return EntityBlockCSR(
            indptr=self._indptr.view(),
            indices=self._indices.view(),
            num_blocks=self.num_blocks,
        )

    def candidate_set(self) -> LiveCandidates:
        """All *live* distinct candidate pairs, derived from the CSR: raw node
        ids, batch candidate order, the canonical renumbering alongside."""
        return self.statistics().live_candidates()

    def statistics(self, cleaning: BlockCleaning = NO_CLEANING) -> IndexStatistics:
        """A fresh statistics view over the current state, read under ``cleaning``."""
        return IndexStatistics((self,), cleaning)

    # -- shipping ----------------------------------------------------------------
    def _export_meta(self) -> Dict[str, Any]:
        return {
            "num_slots": self.num_slots,
            "num_blocks": self.num_blocks,
            "epoch": self.epoch,
            "bilateral": self.bilateral,
            "side_counts": tuple(self._side_counts),
        }

    def export_state(self) -> Dict[str, Any]:
        """The full read-state ship: the three arrays plus the scalars of
        :meth:`_export_meta`; arrays are zero-copy views into the state —
        consume (copy or ship) them before the next mutation."""
        arrays = {name: getattr(self, field).view() for name, field, _, _ in APPENDED}
        return {"arrays": arrays, "meta": dict(self._export_meta(), kind="full")}

    def _adopt_scalars(self, meta: Dict[str, Any], arrived: np.ndarray) -> None:
        """Refuse a ship whose counts or CSR disagree with the arrays now held,
        else adopt its scalars: a refused ship never advances the epoch handshake.

        ``arrived`` are the block ids the ship brought.  The block count never
        shrinks between a full ship and the deltas on it, so every id held is
        below the shipped count once the arrived ones are.
        """
        if self.num_slots != int(meta["num_slots"]):
            raise IndexStateError(
                f"shard state desynchronized: {self.num_slots} node slots "
                f"held but the shipped state reports {meta['num_slots']}"
            )
        num_blocks = int(meta["num_blocks"])
        low, high = (int(arrived.min()), int(arrived.max())) if arrived.size else (0, -1)
        if num_blocks < self._num_blocks or low < 0 or high >= num_blocks:
            raise IndexStateError(
                f"shard state desynchronized: the shipped state reports {num_blocks} "
                f"blocks after {self._num_blocks} held, for block ids {low}..{high}"
            )
        indptr = self._indptr.view()
        if indptr.size != self.num_slots + 1 or indptr[-1] != len(self._indices):
            raise IndexStateError(
                f"shard state desynchronized: {indptr.size - 1} CSR rows ending at {indptr[-1:]} "
                f"held for {self.num_slots} node slots and {len(self._indices)} memberships"
            )
        self._num_blocks = num_blocks
        self.epoch = int(meta["epoch"])
        self._side_counts = list(meta["side_counts"])

    def apply_full(self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
        """(Re)build the state from a complete shipped state (arrays copied)."""
        for name, field, _, _ in APPENDED:
            setattr(self, field, Growable.of(arrays[name]))
        self._num_blocks = 0
        self._adopt_scalars(meta, self._indices.view())
        self.bilateral = bool(meta["bilateral"])

    def apply_delta(self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
        """Advance the state in place by one shipped delta."""
        for name, field, _, _ in APPENDED:
            tail = arrays[f"{name}_tail"]
            if tail.size:
                getattr(self, field).extend(tail)
        tombstoned = arrays["tombstoned_nodes"]
        if tombstoned.size:
            self._sides[tombstoned] = np.int8(-1)
        self._adopt_scalars(meta, arrays["indices_tail"])
