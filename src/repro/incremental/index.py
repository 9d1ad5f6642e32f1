"""The mutation side of the streaming index.

The batch pipeline flattens a finished block collection's membership matrix
into the entity x block CSR incidence structure once (:mod:`repro.weights.sparse`).
Streaming workloads cannot afford that: inserting one entity must cost work
proportional to the blocks it touches, not to the whole collection.

:class:`MutableBlockIndex` is the streaming counterpart: an
:class:`~repro.incremental.IndexState` (:mod:`repro.incremental.state` holds
the arrays, the schema they ship under and every read over them) that
mutates itself.  It is *fully dynamic*: entities can be inserted
(:meth:`~MutableBlockIndex.add_entity`,
:meth:`~MutableBlockIndex.add_entities_bulk`), retracted
(:meth:`~MutableBlockIndex.remove_entity`) and corrected
(:meth:`~MutableBlockIndex.update_entity`).  Under every mutation it
maintains, beside the state's arrays, only what no read can derive in
O(delta):

* the token -> block inverted index (one block per distinct signature), the
  per-block member lists, and the per-block vectors ``|b|``, ``||b||``,
  ``1/||b||`` and ``1/|b|``, which never leave the index;
* ``|B|`` and ``||B||`` (:attr:`num_nonempty_blocks`,
  :attr:`total_cardinality`), the LCP degree of every node and the live
  candidate-pair count — integers, exact under any order of updates;
* the per-mutation *delta*: the new pairs
  an insert introduced (:class:`InsertDelta`) or the dead pairs a removal
  retracted (:class:`RetractionDelta`), each carrying the pairs' packed keys.
  No pair is stored: every read derives the live pairs from the CSR, and the
  per-pair state a session keeps is keyed by those packed keys;
* optionally a write-ahead log (append-before-apply) and a
  :class:`_DeltaTracker`, which is why :meth:`~MutableBlockIndex.export_delta`
  lives here and not on the state.

The per-entity aggregates every weighting scheme needs (``|B_i|``,
``||e_i||``, ``Σ 1/||b||``, ``Σ 1/|b|``) are not maintained: an insert's
scores read them off the CSR rows of the pairs it scores
(:meth:`~MutableBlockIndex.insert_statistics`), an exact answer off the rows
it reads.  Both follow the batch conventions: blocks spawning no comparison
are excluded from ``|B|``, ``|B_i|`` and the inverse sums (a batch
collection never assembles them), so a
:class:`MutableBlockIndex` fed any interleaving of inserts, removals,
updates and bulk loads ending in collection ``C`` exposes exactly the
statistics :class:`repro.weights.BlockStatistics` computes on the *raw*
batch block collection built from ``C``
(``prepare_blocks(..., cleaning=NO_CLEANING)``) —
what the insert path scores deltas against — whatever the mutation path.
Block Purging and Block
Filtering are global functions of the live collection, so the index does
not maintain them: an exact answer under the paper's cleaning applies them
at read time (:class:`~repro.incremental.IndexStatistics` with a
:class:`~repro.blocking.cleaning.BlockCleaning`, the kernel batch
preparation runs, handing the blocks it leaves to the one
:class:`repro.weights.BlockStatistics`), and equals ``prepare_blocks`` with
its defaults.

Node ids are assigned in arrival order and never reused: a removed entity's
slot is tombstoned (its degree zeroed, its side -1, its CSR row left
behind and skipped by every read) and an updated entity re-enters under a
fresh node id; the derived candidate set numbers the *live* nodes in the
compact batch numbering of ``canonical_node_ids``, which is what the session's
exact finalisation uses to reproduce batch pruning bit-for-bit.  The
finalisation is array-only: the cardinality budgets come from the statistics'
``block_totals()``.

Per-insert cost is ``O(Σ_{b ∈ tokens(e)} |b|)`` — the size of the touched
blocks, i.e. the mutation's candidate delta — independent of the number of
entities or pairs already indexed; removals cost the same as the insert
they reverse.  :meth:`~MutableBlockIndex.add_entities_bulk` amortises the
per-entity overhead further: the batch is tokenized and dictionary-encoded
in one array pass (the :mod:`repro.blocking.arrayops` path), merged into
the live CSR with one append, and its candidate pairs deduplicated with
packed keys instead of per-insert ``np.unique`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..datamodel.entity import EntityProfile
from ..pairs import MAX_NODE_ID, node_id_overflow, pack_pair_keys, sorted_unique
from ..schema import META_FORMAT, check_record
from ..utils.text import tokens
from .state import APPENDED, Growable, IndexState, IndexStatistics


class UnknownEntityError(KeyError):
    """An operation referenced an entity id the index has never seen (or
    has already removed) on the given side.

    Raised *before* any aggregate is touched, so a failed removal or lookup
    can never leave the index in a corrupted state.
    """

    def __init__(self, entity_id: str, side: int) -> None:
        super().__init__(entity_id)
        self.entity_id = entity_id
        self.side = side

    def __str__(self) -> str:
        return (
            f"unknown entity_id {self.entity_id!r} on side {self.side}; "
            "it was never inserted or has already been removed"
        )


class DuplicateEntityError(ValueError):
    """An insert reused an entity id that is currently live on that side."""

    def __init__(self, entity_id: str, side: int) -> None:
        super().__init__(
            f"duplicate entity_id {entity_id!r} on side {side}; remove or "
            "update the existing entity instead of re-adding it"
        )
        self.entity_id = entity_id
        self.side = side


class _DeltaTracker:
    """What happened between two :meth:`MutableBlockIndex.export_delta` calls.

    Everything appended past the recorded base watermarks (slots, CSR) is
    shipped as a tail; the one in-place change a reader holds is a removed
    node's side flag, so the removed nodes are the only thing recorded.
    """

    __slots__ = ("base_epoch", "base_lengths", "removed")

    def __init__(self, index: "MutableBlockIndex") -> None:
        self.base_epoch = index.epoch
        #: the watermarks: field -> length of each append-only array
        self.base_lengths = {
            field: len(getattr(index, field)) for _, field, _, _ in APPENDED
        }
        self.removed: List[int] = []


@dataclass(frozen=True)
class InsertDelta:
    """What one ``add_entity`` changed: the new node and its new pairs."""

    #: node id assigned to the inserted entity
    node: int
    #: the inserted entity's identifier
    entity_id: str
    #: block ids of the entity's signatures (sorted)
    block_ids: np.ndarray
    #: node ids the new entity now co-occurs with (each is one new pair)
    counterparts: np.ndarray
    #: packed keys of the new pairs (aligned with counterparts)
    pair_keys: np.ndarray

    @property
    def num_new_pairs(self) -> int:
        """Number of candidate pairs introduced by the insert."""
        return int(self.counterparts.size)


@dataclass(frozen=True)
class RetractionDelta:
    """What one ``remove_entity`` reversed: the dead node and its dead pairs.

    The ``pair_keys`` are the packed keys the pairs were reported under at
    insert time (node ids are never reused), so a
    :class:`~repro.incremental.MatchingSession` can evict exactly those
    pairs from its online WEP running average.
    """

    #: node id the removed entity held (never reused)
    node: int
    #: the removed entity's identifier
    entity_id: str
    #: source side the entity was registered on
    side: int
    #: block ids of the entity's signatures (sorted)
    block_ids: np.ndarray
    #: node ids the entity co-occurred with (each is one retracted pair)
    counterparts: np.ndarray
    #: packed keys of the retracted pairs (aligned with counterparts)
    pair_keys: np.ndarray

    @property
    def num_retracted_pairs(self) -> int:
        """Number of candidate pairs retracted by the removal."""
        return int(self.counterparts.size)


@dataclass(frozen=True)
class UpdateDelta:
    """An in-place correction: the retraction of the old version plus the
    insert of the new one (under a fresh node id)."""

    retraction: RetractionDelta
    insert: InsertDelta


@dataclass(frozen=True)
class BulkInsertDelta:
    """What one ``add_entities_bulk`` changed: the new nodes and new pairs.

    Unlike a sequence of :class:`InsertDelta`, the new pairs are reported
    once for the whole batch, deduplicated and sorted by packed candidate
    key — the order therefore differs from what one-at-a-time inserts would
    report, but the pair *set*, every aggregate, and the exact finalisation
    are identical (the equivalence tests assert this).
    """

    #: node ids assigned to the batch, in input order
    nodes: np.ndarray
    #: the inserted entities' identifiers, in input order
    entity_ids: Tuple[str, ...]
    #: source side the batch was registered on
    side: int
    #: left node ids of the new pairs (canonical, left < right)
    pair_left: np.ndarray
    #: right node ids of the new pairs
    pair_right: np.ndarray
    #: packed keys of the new pairs, ascending
    pair_keys: np.ndarray

    @property
    def num_new_pairs(self) -> int:
        """Number of candidate pairs introduced by the bulk load."""
        return int(self.pair_left.size)


def compacted_rows(state: Dict[str, object]) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of a compacted state's CSR
    (:meth:`MutableBlockIndex.compacted_state`), checked: one row per entity,
    every block id in the key table, ascending within its row.

    Raises
    ------
    ValueError
        When the CSR does not fit the state's rows or key table, naming which.
    """
    indptr = np.asarray(state["csr_indptr"], dtype=np.int64)
    indices = np.asarray(state["csr_indices"], dtype=np.int64)
    lengths = np.diff(indptr)
    if (
        indptr.shape != (len(state["entity_ids"]) + 1,)
        or indptr[0] != 0
        or (lengths < 0).any()
        or indptr[-1] != indices.size
    ):
        raise ValueError("a compacted state's CSR row pointers do not fit its rows")
    if indices.size and (indices.min() < 0 or indices.max() >= len(state["block_keys"])):
        raise ValueError("a compacted state's CSR names a block outside its key table")
    row_starts = np.zeros(indices.size, dtype=bool)
    row_starts[indptr[:-1][lengths > 0]] = True
    if ((np.diff(indices) <= 0) & ~row_starts[1:]).any():
        raise ValueError("a compacted state's CSR row lists its blocks out of order")
    return indptr, indices


class MutableBlockIndex(IndexState):
    """A token/block inverted index supporting online insertion, removal,
    in-place update and bulk loading.

    An :class:`~repro.incremental.IndexState` — every read (registry
    one-liners, canonical renumbering, CSR, candidate set, statistics, block
    totals, :meth:`export_state`) is inherited and reads the very arrays the
    mutations below write — that also owns what only a writer needs.

    An entity's signatures are its Token Blocking tokens,
    :func:`repro.utils.text.tokens` of ``profile.text()`` — the tokens batch
    preparation assembles its blocks from.

    Parameters
    ----------
    bilateral:
        ``True`` for Clean-Clean ER streams (entities arrive tagged with a
        source side, only cross-side pairs are candidates); ``False`` for
        Dirty ER streams (every co-occurring pair is a candidate).
    name:
        Label used in snapshots and reports.
    """

    def __init__(self, bilateral: bool = False, name: str = "stream") -> None:
        super().__init__(bilateral)
        self.name = name

        # token -> block id
        self._block_ids: Dict[str, int] = {}
        self._block_keys: List[str] = []
        # per-block membership (node ids, in arrival order) and the per-block
        # vectors |b|, ||b||, 1/||b|| and 1/|b| (a block spawning no
        # comparison holds cardinality 0 and inverse weights 1)
        self._members_first: List[List[int]] = []
        self._members_second: List[List[int]] = []
        self._block_sizes = Growable(np.int64)
        self._block_cardinalities = Growable(np.int64)
        self._inverse_block_cardinalities = Growable(np.float64)
        self._inverse_block_sizes = Growable(np.float64)
        #: ``|B|`` — blocks spawning at least one comparison
        self.num_nonempty_blocks: int = 0
        #: ``||B||`` — the total number of comparisons
        self.total_cardinality: int = 0

        # entity registry; ids are namespaced per side — Clean-Clean sources
        # commonly number their entities independently
        self._entity_ids: List[str] = []
        self._node_of_id: Dict[Tuple[int, str], int] = {}
        # LCP, maintained as the candidate-pair degree per node, and the
        # number of live candidate pairs
        self._degrees = Growable(np.float64, capacity=256)
        self._num_live_pairs: int = 0

        # durability: an optional write-ahead log every mutation is
        # journaled to (append-before-apply)
        self._wal = None
        self._wal_suspended = False

        # delta shipping: when a reader has enabled tracking
        # (enable_delta_tracking), the tracker records what changed since its
        # base epoch so export_delta can ship O(changed) instead of O(state).
        # Single-consumer by design (the serve read path).
        self._delta: Optional[_DeltaTracker] = None

    # -- durability --------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Journal every following mutation to ``wal``.

        A fresh log receives a meta record describing the index topology,
        which a shard replica replaying the log from its start builds its
        index from.  Attaching an already-written log (the resume path of
        :func:`repro.persistence.recover_session`) appends behind the
        existing records.
        """
        wal.open()
        if wal.is_fresh:
            meta = {"op": "meta", "format": META_FORMAT, "kind": "index"}
            wal.append_record(dict(meta, bilateral=self.bilateral, name=self.name))
        self._wal = wal

    def _log_record(self, record: dict) -> None:
        """Append one logical record (no-op without an attached log)."""
        if self._wal is not None and not self._wal_suspended:
            self._wal.append_record(record)

    # -- container protocol ----------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Number of *live* distinct candidate pairs."""
        return self._num_live_pairs

    @property
    def num_blocks(self) -> int:
        """Number of blocks, including those spawning no comparison yet."""
        return len(self._block_keys)

    def __len__(self) -> int:
        return self.num_entities

    def entity_id(self, node: int) -> str:
        """The identifier of the entity holding node id ``node``."""
        return self._entity_ids[node]

    def entity_ids_of(self, nodes: np.ndarray) -> Tuple[str, ...]:
        """The identifiers of the entities holding ``nodes``, in that order."""
        return tuple(map(self._entity_ids.__getitem__, nodes.tolist()))

    def node_of(self, entity_id: str, side: int = 0) -> int:
        """The node id assigned to the live entity ``entity_id`` on ``side``.

        Raises
        ------
        UnknownEntityError
            When no live entity with that id exists on that side.
        """
        node = self._node_of_id.get((side, entity_id))
        if node is None:
            raise UnknownEntityError(entity_id, side)
        return node

    def has_entity(self, entity_id: str, side: int = 0) -> bool:
        """Whether ``entity_id`` is currently live on ``side``."""
        return (side, entity_id) in self._node_of_id

    # -- insertion -------------------------------------------------------------
    def add_entity(self, profile: EntityProfile, side: int = 0) -> InsertDelta:
        """Insert one entity and return the candidate delta it introduced.

        Parameters
        ----------
        profile:
            The entity profile; its signatures are the distinct tokens of its
            text.
        side:
            Source collection (0 or 1) for bilateral streams; must be 0 for
            unilateral streams.

        Raises
        ------
        SchemaError
            When the ``add`` record's table refuses the call (see
            :meth:`_validated`); the index is left untouched.
        DuplicateEntityError
            When an entity with the same id is currently live on ``side``
            (remove or :meth:`update_entity` it instead).
        """
        signatures = sorted(set(tokens(profile.text())))
        record = self._validated(
            {"op": "add", "id": profile.entity_id, "side": side, "sig": signatures}
        )
        if (side, profile.entity_id) in self._node_of_id:
            raise DuplicateEntityError(profile.entity_id, side)
        self._log_record(record)
        return self._apply_insert(profile.entity_id, side, signatures)

    def _apply_insert(
        self, entity_id: str, side: int, signatures: Sequence[str]
    ) -> InsertDelta:
        """Insert with pre-extracted distinct signatures (the WAL replay and
        shard-replica entry point; arguments must already be validated)."""
        self.epoch += 1
        node = self._register_entity(entity_id, side)

        block_ids: List[int] = []
        counterpart_parts: List[np.ndarray] = []
        for signature in signatures:
            block_id = self._block_ids.get(signature)
            if block_id is None:
                block_id = self._create_block(signature)
            block_ids.append(block_id)
            counterparts = self._move_member(block_id, node, side, joining=True)
            if counterparts is not None:
                counterpart_parts.append(counterparts)

        sorted_block_ids = np.sort(np.asarray(block_ids, dtype=np.int64))
        self._indices.extend(sorted_block_ids)
        self._indptr.append(len(self._indices))

        if counterpart_parts:
            counterparts = sorted_unique(np.concatenate(counterpart_parts))
        else:
            counterparts = np.empty(0, dtype=np.int64)

        # the new node is the largest id, so every new pair is (counterpart, node)
        self._degrees[counterparts] += 1.0
        self._degrees[node] += counterparts.size
        self._num_live_pairs += counterparts.size

        return InsertDelta(
            node=node,
            entity_id=entity_id,
            block_ids=sorted_block_ids,
            counterparts=counterparts,
            pair_keys=pack_pair_keys(counterparts, np.full_like(counterparts, node)),
        )

    def add_entities_bulk(
        self,
        profiles: Sequence[EntityProfile],
        side: int = 0,
    ) -> BulkInsertDelta:
        """Insert a batch of same-side entities in one array pass.

        The batch is tokenized as batch preparation tokenizes (one
        :func:`~repro.utils.text.tokens` list per profile), its memberships
        deduplicated via packed-key sort (:mod:`repro.blocking.arrayops`),
        and the result merged into the live CSR with a single append instead
        of one row append per entity.  Per-block aggregate adjustments are
        applied once per *touched block* (vectorized over that block's old
        and new members), and the batch's new candidate pairs are
        deduplicated globally with packed keys — no per-insert ``np.unique``.

        The resulting index state is identical to calling
        :meth:`add_entity` once per profile; only the *order* the new pairs
        are reported in differs (sorted by packed key rather than grouped by
        insert), which no aggregate, pair set or exact finalisation sees.

        Returns
        -------
        BulkInsertDelta
            The assigned node ids and the batch's new pairs.
        """
        profiles = list(profiles)
        # batch tokenization happens before any state change, so a logged
        # bulk record always precedes its application (append-before-apply)
        entries = [(profile.entity_id, tokens(profile.text())) for profile in profiles]
        record = self._validated({"op": "bulk", "side": side, "entities": entries})
        seen_batch = set()
        for profile in profiles:
            if (side, profile.entity_id) in self._node_of_id:
                raise DuplicateEntityError(profile.entity_id, side)
            if profile.entity_id in seen_batch:
                raise DuplicateEntityError(profile.entity_id, side)
            seen_batch.add(profile.entity_id)
        self._log_record(record)
        return self._apply_bulk(entries, side)

    def _apply_bulk(
        self, entries: Sequence[Tuple[str, List[str]]], side: int
    ) -> BulkInsertDelta:
        """Bulk-insert ``(entity_id, signatures)`` entries (the WAL replay
        and shard-rebuild entry point; entries must already be validated)."""
        self.epoch += 1
        base = self.num_slots
        n_new = len(entries)
        self._register_entities_batch([entity_id for entity_id, _ in entries], side)

        # dictionary encoding against the live block ids
        flat_ids: List[int] = []
        lengths = np.empty(n_new, dtype=np.int64)
        blocks_before = self.num_blocks
        block_ids = self._block_ids
        block_keys = self._block_keys
        members_first = self._members_first
        members_second = self._members_second
        append_id = flat_ids.append
        for offset, (_, signatures) in enumerate(entries):
            lengths[offset] = len(signatures)
            for signature in signatures:
                block_id = block_ids.get(signature)
                if block_id is None:
                    # inline block creation; the per-block aggregate arrays
                    # are extended once for the whole batch below
                    block_id = len(block_keys)
                    block_ids[signature] = block_id
                    block_keys.append(signature)
                    members_first.append([])
                    members_second.append([])
                append_id(block_id)
        created = len(block_keys) - blocks_before
        if created:
            self._block_sizes.extend(np.zeros(created, dtype=np.int64))
            self._block_cardinalities.extend(np.zeros(created, dtype=np.int64))
            self._inverse_block_cardinalities.extend(np.ones(created))
            self._inverse_block_sizes.extend(np.ones(created))

        num_blocks = np.int64(max(self.num_blocks, 1))
        relative_nodes = np.repeat(np.arange(n_new, dtype=np.int64), lengths)
        block_of = np.asarray(flat_ids, dtype=np.int64)
        if block_of.size:
            # distinct (node, block) memberships, node-major with sorted
            # per-row block ids — exactly the CSR layout
            packed = sorted_unique(relative_nodes * num_blocks + block_of)
            relative_nodes = packed // num_blocks
            block_of = packed % num_blocks

        # one-pass CSR merge: a single extend for the indices, a single
        # extend of cumulative row ends for the pointers
        previous_end = len(self._indices)
        self._indices.extend(block_of)
        row_counts = np.bincount(relative_nodes, minlength=n_new)
        self._indptr.extend(previous_end + np.cumsum(row_counts))

        pair_left, pair_right = self._apply_bulk_memberships(
            block_of, relative_nodes + base, side
        )
        # np.add.at (not fancy-indexed +=) — left/right repeat nodes, and the
        # cost must stay O(pairs), not O(num_slots)
        degrees = self._degrees.view()
        np.add.at(degrees, pair_left, 1.0)
        np.add.at(degrees, pair_right, 1.0)
        self._num_live_pairs += pair_left.size

        return BulkInsertDelta(
            nodes=np.arange(base, base + n_new, dtype=np.int64),
            entity_ids=tuple(entity_id for entity_id, _ in entries),
            side=side,
            pair_left=pair_left,
            pair_right=pair_right,
            pair_keys=pack_pair_keys(pair_left, pair_right),
        )

    def _apply_bulk_memberships(
        self, block_of: np.ndarray, nodes: np.ndarray, side: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply a batch's (block, node) memberships to the block state.

        The per-block transitions (sizes, cardinalities, global counters)
        are computed as single vectorized passes over the *touched block
        groups*; the only per-block Python work left is gathering the
        counterpart lists and emitting the cross-product candidate pairs.
        Returns the batch's distinct new pairs, canonical and sorted by
        packed key.
        """
        empty = np.empty(0, dtype=np.int64)
        if block_of.size == 0:
            return empty, empty
        order = np.lexsort((nodes, block_of))
        grouped_blocks = block_of[order]
        grouped_nodes = nodes[order]
        starts = np.flatnonzero(np.r_[True, grouped_blocks[1:] != grouped_blocks[:-1]])
        ends = np.r_[starts[1:], grouped_blocks.size]
        touched = grouped_blocks[starts]
        touched_list = touched.tolist()
        added = ends - starts

        # old per-block state, gathered vectorized
        old_first = np.fromiter(
            (len(self._members_first[b]) for b in touched_list),
            dtype=np.int64,
            count=touched.size,
        )
        old_second = np.fromiter(
            (len(self._members_second[b]) for b in touched_list),
            dtype=np.int64,
            count=touched.size,
        )
        old_cardinality = self._block_cardinalities.view()[touched]

        new_size = old_first + old_second + added
        if self.bilateral:
            new_first = old_first + (added if side == 0 else 0)
            new_second = old_second + (added if side == 1 else 0)
            new_cardinality = new_first * new_second
        else:
            new_cardinality = new_size * (new_size - 1) // 2

        # global aggregates: one transition per touched block
        self.total_cardinality += int((new_cardinality - old_cardinality).sum())
        self.num_nonempty_blocks += int(((old_cardinality == 0) & (new_cardinality > 0)).sum())

        # per-block state, stored vectorized
        self._block_sizes[touched] = new_size
        self._block_cardinalities[touched] = new_cardinality
        self._inverse_block_cardinalities[touched] = 1.0 / np.maximum(
            new_cardinality, 1
        )
        self._inverse_block_sizes[touched] = 1.0 / np.maximum(new_size, 1)

        # gather counterparts (for pair emission), extending the member lists
        # as we go; the pair cross-products themselves are emitted in one
        # grouped pass below
        stride = np.int64(max(self.num_slots, 1))
        cp_parts: List[np.ndarray] = []
        cp_groups: List[int] = []
        cp_counts: List[int] = []
        pair_parts: List[np.ndarray] = []
        join_second = self.bilateral and side == 1
        for group, block_id in enumerate(touched_list):
            first = self._members_first[block_id]
            second = self._members_second[block_id]
            new_members = grouped_nodes[starts[group] : ends[group]]
            if self.bilateral:
                counterpart_list = second if side == 0 else first
            else:
                counterpart_list = first
            if counterpart_list:
                cp_parts.append(
                    np.fromiter(
                        counterpart_list, dtype=np.int64, count=len(counterpart_list)
                    )
                )
                cp_groups.append(group)
                cp_counts.append(len(counterpart_list))
            if not self.bilateral and new_members.size >= 2:
                upper_i, upper_j = np.triu_indices(new_members.size, k=1)
                pair_parts.append(
                    new_members[upper_i] * stride + new_members[upper_j]
                )
            (second if join_second else first).extend(new_members.tolist())

        if cp_parts:
            # grouped cross product: every counterpart of a touched block
            # pairs with each of the block's new members, all groups at once
            cp_nodes = np.concatenate(cp_parts)
            cp_group = np.repeat(np.asarray(cp_groups, dtype=np.int64), cp_counts)
            per_cp = added[cp_group]
            old = np.repeat(cp_nodes, per_cp)
            span_ends = np.cumsum(per_cp)
            within = np.arange(int(span_ends[-1]), dtype=np.int64) - np.repeat(
                span_ends - per_cp, per_cp
            )
            new = grouped_nodes[np.repeat(starts[cp_group], per_cp) + within]
            pair_parts.append(np.minimum(old, new) * stride + np.maximum(old, new))

        if not pair_parts:
            return empty, empty
        # every pair involves at least one new node, so none can already be
        # registered — a packed-key dedup across blocks suffices
        keys = sorted_unique(np.concatenate(pair_parts))
        return keys // stride, keys % stride

    def _register_entities_batch(
        self, entity_ids: Sequence[str], side: int
    ) -> None:
        """Batch counterpart of :meth:`_register_entity` (one extend each)."""
        n_new = len(entity_ids)
        if n_new == 0:
            return
        base = self.num_slots
        if base + n_new > MAX_NODE_ID:
            raise node_id_overflow(base + n_new - 1)
        entity_ids = list(entity_ids)
        self._entity_ids.extend(entity_ids)
        self._node_of_id.update(
            ((side, entity_id), base + offset)
            for offset, entity_id in enumerate(entity_ids)
        )
        self._sides.extend(np.full(n_new, side, dtype=np.int8))
        self._side_counts[side] += n_new
        self._degrees.extend(np.zeros(n_new))

    # -- removal / update ------------------------------------------------------
    def remove_entity(self, entity_id: str, side: int = 0) -> RetractionDelta:
        """Retract one entity, reversing every aggregate it contributed to.

        The entity leaves each of its blocks (adjusting ``|b|``, ``||b||``
        and the inverse weight vectors in place, exactly undoing what its
        insertion added), its candidate pairs leave the live count and the
        LCP degrees, and its node slot is marked dead.  Cost is proportional
        to the entity's candidate delta, like the insert it reverses.

        Returns
        -------
        RetractionDelta
            The dead node and the packed keys of its retracted pairs (the
            session uses these to evict the pairs from its online
            aggregates).

        Raises
        ------
        UnknownEntityError
            When no live entity with that id exists on that side; the index
            is left untouched.
        """
        record = self._validated({"op": "remove", "id": entity_id, "side": side})
        node = self._node_of_id.get((side, entity_id))
        if node is None:
            raise UnknownEntityError(entity_id, side)
        self._log_record(record)
        self.epoch += 1

        block_ids = np.array(
            self._indices[self._indptr[node] : self._indptr[node + 1]], copy=True
        )
        counterpart_parts: List[np.ndarray] = []
        for block_id in block_ids.tolist():
            counterparts = self._move_member(block_id, node, side, joining=False)
            if counterparts is not None:
                counterpart_parts.append(counterparts)

        if counterpart_parts:
            counterparts = sorted_unique(np.concatenate(counterpart_parts))
        else:
            counterparts = np.empty(0, dtype=np.int64)

        # refuses ids at MAX_NODE_ID like every other pair-key packing
        keys = pack_pair_keys(
            np.minimum(counterparts, node), np.maximum(counterparts, node)
        )
        self._degrees[counterparts] -= 1.0
        self._degrees[node] = 0.0
        self._num_live_pairs -= counterparts.size
        if self._delta is not None:
            self._delta.removed.append(node)

        del self._node_of_id[(side, entity_id)]
        self._sides[node] = -1
        self._side_counts[side] -= 1

        return RetractionDelta(
            node=node,
            entity_id=entity_id,
            side=side,
            block_ids=block_ids,
            counterparts=counterparts,
            pair_keys=keys,
        )

    def update_entity(self, profile: EntityProfile, side: int = 0) -> UpdateDelta:
        """Correct an entity in place: retract the live version, insert the new.

        The new version enters under a *fresh* node id (slots are never
        reused), re-entering arrival order at the end — the canonical
        numbering treats an updated entity as the most recent arrival of its
        side.

        Raises
        ------
        SchemaError
            When the ``update`` record's table refuses the call (see
            :meth:`_validated`); the index is left untouched.
        UnknownEntityError
            When the entity is not currently live on ``side``.
        """
        # validate and tokenize first, so neither the index nor the log ever
        # holds a failing op; one logical "update" record covers the inner
        # remove + insert
        signatures = sorted(set(tokens(profile.text())))
        record = self._validated(
            {"op": "update", "id": profile.entity_id, "side": side, "sig": signatures}
        )
        if (side, profile.entity_id) not in self._node_of_id:
            raise UnknownEntityError(profile.entity_id, side)
        self._log_record(record)
        return self._apply_update(profile.entity_id, side, signatures)

    def _apply_update(
        self, entity_id: str, side: int, signatures: Sequence[str]
    ) -> UpdateDelta:
        """Update with pre-extracted signatures, without journaling the
        inner remove/insert (the WAL replay entry point)."""
        suspended = self._wal_suspended
        self._wal_suspended = True
        try:
            retraction = self.remove_entity(entity_id, side=side)
            insert = self._apply_insert(entity_id, side, signatures)
        finally:
            self._wal_suspended = suspended
        return UpdateDelta(retraction=retraction, insert=insert)

    # -- shared mutation helpers -----------------------------------------------
    def _validated(self, record: dict) -> dict:
        """``record``, once its log table (:mod:`repro.schema`) and the
        bilateral rule accept it.

        The index refuses exactly what its log refuses, attached or not: a
        :class:`~repro.schema.SchemaError` naming the field (an id that is
        not a string, a side that is not the int 0 or 1), before any state
        changes.
        """
        check_record(record)
        if record["side"] == 1 and not self.bilateral:
            raise ValueError("side=1 requires a bilateral index")
        return record

    def _register_entity(self, entity_id: str, side: int) -> int:
        node = self.num_slots
        if node >= MAX_NODE_ID:
            raise node_id_overflow(node)
        self._entity_ids.append(entity_id)
        self._node_of_id[(side, entity_id)] = node
        self._sides.append(side)
        self._side_counts[side] += 1
        self._degrees.append(0.0)
        return node

    def _register_tombstone(self) -> int:
        """Burn one node slot as already-removed (empty CSR row, side -1).

        Snapshot adoption uses this to reproduce another index's node space:
        slots its dead entities occupy must exist here too — with the same
        ids — so later WAL records referring to still-live nodes resolve
        identically.  A tombstone never matches any side, owns no blocks,
        and is skipped by every canonical view, exactly like a slot
        :meth:`remove_entity` has retired.
        """
        self.epoch += 1
        node = self.num_slots
        if node >= MAX_NODE_ID:
            raise node_id_overflow(node)
        self._entity_ids.append("")
        self._sides.append(-1)
        self._degrees.append(0.0)
        self._indptr.append(len(self._indices))
        return node

    def _create_block(self, signature: str) -> int:
        block_id = len(self._block_keys)
        self._block_ids[signature] = block_id
        self._block_keys.append(signature)
        self._members_first.append([])
        self._members_second.append([])
        self._block_sizes.append(0)
        self._block_cardinalities.append(0)
        self._inverse_block_cardinalities.append(1.0)
        self._inverse_block_sizes.append(1.0)
        return block_id

    def _move_member(
        self, block_id: int, node: int, side: int, joining: bool
    ) -> Optional[np.ndarray]:
        """Add ``node`` to a block (or remove it: the exact inverse) and store
        the block's new state; return the node ids it is (was) compared
        against within the block — ``None`` when there are none."""
        first = self._members_first[block_id]
        second = self._members_second[block_id]
        own, other = (second, first) if self.bilateral and side == 1 else (first, second)
        if not joining:
            own.remove(node)
        # the node's counterparts: the other side, or every other member
        counterpart_list = other if self.bilateral else own
        counterparts = (
            np.fromiter(counterpart_list, dtype=np.int64, count=len(counterpart_list))
            if counterpart_list
            else None
        )
        if joining:
            own.append(node)
        size = len(first) + len(second)
        cardinality = len(first) * len(second) if self.bilateral else size * (size - 1) // 2
        old_cardinality = int(self._block_cardinalities[block_id])
        # a block starting or stopping to spawn comparisons enters or leaves |B|
        self.num_nonempty_blocks += (cardinality > 0) - (old_cardinality > 0)
        self.total_cardinality += cardinality - old_cardinality
        self._block_sizes[block_id] = size
        self._block_cardinalities[block_id] = cardinality
        self._inverse_block_cardinalities[block_id] = 1.0 / max(cardinality, 1)
        self._inverse_block_sizes[block_id] = 1.0 / max(size, 1)
        return counterparts

    # -- the compacted state ---------------------------------------------------
    def compacted_state(self) -> Dict[str, object]:
        """The index without its tombstones, as arrays — what a snapshot
        stores and recovery adopts.

        * ``entity_ids`` / ``side_counts``: the live rows in canonical order
          (side 0 in arrival order, then side 1), so a row number *is* the
          canonical node id;
        * ``block_keys``: the blocks with at least one live member, in their
          old order — renumbered monotonically, so every row keeps its block
          order;
        * ``csr_indptr`` / ``csr_indices``: the live rows of the CSR over the
          renumbered blocks;
        * ``degrees``: the LCP of every row as held — integers, which a
          recount would have to expand every pair for.

        Everything else is recounted exactly by :meth:`adopt_compacted`.
        """
        sides = self._sides.view()
        live = np.concatenate((np.flatnonzero(sides == 0), np.flatnonzero(sides == 1)))
        old_indptr = self._indptr.view()
        starts = old_indptr[live]
        lengths = old_indptr[live + 1] - starts
        indptr = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        gather = np.arange(indptr[-1], dtype=np.int64) + np.repeat(
            starts - indptr[:-1], lengths
        )
        memberships = self._indices.view()[gather]
        kept = np.zeros(self.num_blocks, dtype=bool)
        kept[memberships] = True
        renumbered = np.cumsum(kept, dtype=np.int64) - 1
        return {
            "entity_ids": list(map(self._entity_ids.__getitem__, live.tolist())),
            "side_counts": [int(self._side_counts[0]), int(self._side_counts[1])],
            "block_keys": list(
                map(self._block_keys.__getitem__, np.flatnonzero(kept).tolist())
            ),
            "csr_indptr": indptr,
            "csr_indices": renumbered[memberships],
            "degrees": self._degrees.view()[live],
        }

    def adopt_compacted(self, state: Dict[str, object]) -> None:
        """Become the compacted index ``state`` (:meth:`compacted_state`).

        The arrays are adopted (copied); what they determine is recounted
        exactly — block sizes and cardinalities from the CSR transposed by
        side, which also yields the member lists (ascending node ids), the
        inverse block weights as ``1 / max(·, 1)`` of those integers and the
        global totals — and the token and entity dictionaries are rebuilt.
        Other fields of ``state`` are ignored, so a snapshot that also stores
        per-entity float sums still loads.
        Nothing is re-encoded and no pair is expanded.  Recovery adopts into
        a freshly built index (:func:`~repro.persistence.snapshot.build_index_from_state`),
        the only index this may be called on.

        Raises
        ------
        ValueError
            When the index already holds a node, or the arrays are not a
            consistent compacted state.
        """
        if self.num_slots:
            raise ValueError("a compacted state is adopted by a freshly built index only")
        entity_ids = list(state["entity_ids"])
        block_keys = list(state["block_keys"])
        first, second = (int(count) for count in state["side_counts"])
        indptr, indices = compacted_rows(state)
        degrees = np.asarray(state["degrees"], dtype=np.float64)
        num_nodes, num_blocks = first + second, len(block_keys)
        if (
            min(first, second) < 0
            or (second and not self.bilateral)
            or len(entity_ids) != num_nodes
            or degrees.shape != (num_nodes,)
        ):
            raise ValueError("the arrays are not a consistent compacted index state")
        # integers below the entity count (NaN and inf fail the comparisons),
        # and every pair adds one to the degree of both its nodes
        if not (
            ((degrees >= 0) & (degrees < num_nodes) & (degrees == np.floor(degrees))).all()
            and degrees.sum() % 2 == 0
        ):
            raise ValueError(
                "a compacted index state's degrees are not the non-negative "
                "integers of a pair set"
            )
        row_of = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
        sides = np.repeat(np.array([0, 1], dtype=np.int8), [first, second])
        node_of_id = dict(zip(zip(sides.tolist(), entity_ids), range(num_nodes)))
        if len(node_of_id) != num_nodes:
            raise ValueError("a compacted index state lists an entity twice")

        # the CSR transposed: memberships grouped by block, ascending node ids
        # within a block — so a block's side-0 members precede its side-1 ones
        members = row_of[np.argsort(indices, kind="stable")].tolist()
        sizes = np.bincount(indices, minlength=num_blocks)
        firsts = np.bincount(indices[row_of < first], minlength=num_blocks)
        if self.bilateral:
            cardinalities = firsts * (sizes - firsts)
        else:
            cardinalities = sizes * (sizes - 1) // 2
        ends = np.cumsum(sizes).tolist()
        starts = [0] + ends[:-1]
        splits = (np.asarray(starts, dtype=np.int64) + firsts).tolist()

        self._entity_ids = entity_ids
        self._node_of_id = node_of_id
        self._side_counts = [first, second]
        self._sides = Growable.of(sides)
        self._indptr = Growable.of(indptr)
        self._indices = Growable.of(indices)
        self._block_keys = block_keys
        self._block_ids = dict(zip(block_keys, range(num_blocks)))
        self._members_first = [members[a:b] for a, b in zip(starts, splits)]
        self._members_second = [members[a:b] for a, b in zip(splits, ends)]
        self._block_sizes = Growable.of(sizes, np.int64)
        self._block_cardinalities = Growable.of(cardinalities, np.int64)
        self._inverse_block_cardinalities = Growable.of(1.0 / np.maximum(cardinalities, 1))
        self._inverse_block_sizes = Growable.of(1.0 / np.maximum(sizes, 1))
        self._degrees = Growable.of(degrees)
        self.total_cardinality = int(cardinalities.sum())
        self.num_nonempty_blocks = int(np.count_nonzero(cardinalities))
        self._num_live_pairs = int(degrees.sum()) // 2

    # -- read-side structures --------------------------------------------------
    def insert_statistics(self, candidates: CandidateSet) -> IndexStatistics:
        """The insert-time read of ``candidates``: the raw-block statistics at
        the rows of their endpoints, derived in O(Σ those rows) (see
        :class:`~repro.incremental.IndexStatistics`)."""
        return IndexStatistics(
            (self,), rows=np.concatenate((candidates.left, candidates.right))
        )

    def delta_candidate_set(self, delta: InsertDelta) -> CandidateSet:
        """The candidate pairs introduced by one insert, as a candidate set."""
        left = delta.counterparts.copy()
        right = np.full(left.size, delta.node, dtype=np.int64)
        return CandidateSet(left, right, self.index_space())

    def bulk_candidate_set(self, delta: BulkInsertDelta) -> CandidateSet:
        """The candidate pairs introduced by one bulk load, as a candidate set."""
        return CandidateSet(
            delta.pair_left.copy(), delta.pair_right.copy(), self.index_space()
        )

    # -- delta shipping ---------------------------------------------------------
    def enable_delta_tracking(self) -> int:
        """Start (or restart) recording dirty sets from the current epoch.

        Called by the serving daemon's read view right after a full export:
        subsequent :meth:`export_delta` calls against the returned epoch
        ship only what changed.  Single consumer — re-enabling rebases the
        tracker.
        """
        self._delta = _DeltaTracker(self)
        return self.epoch

    def export_delta(self, since_epoch: int) -> Optional[dict]:
        """Everything that changed since ``since_epoch``, or ``None``.

        Returns ``None`` when no tracker is armed or its base does not
        match ``since_epoch`` (stale reader, index replaced by checkpoint
        adoption) — the caller must fall back to
        :meth:`export_state`.  On success the tracker is rebased to the
        current epoch, so the returned delta must be consumed before the
        next mutation (arrays may be zero-copy views).

        The wire layout is derived from the schema table of
        :mod:`repro.incremental.state`, like :meth:`export_state`: the
        appended slot / CSR tails, and the nodes removed since the base whose
        slot the reader already holds.
        """
        tracker = self._delta
        if tracker is None or int(since_epoch) != tracker.base_epoch:
            return None
        removed = np.sort(np.asarray(tracker.removed, dtype=np.int64))
        arrays = {
            f"{name}_tail": getattr(self, field).view()[tracker.base_lengths[field] :]
            for name, field, _, _ in APPENDED
        }
        arrays["tombstoned_nodes"] = removed[removed < tracker.base_lengths["_sides"]]
        meta = dict(self._export_meta(), kind="delta", base_epoch=tracker.base_epoch)
        self._delta = _DeltaTracker(self)
        return {"arrays": arrays, "meta": meta}
