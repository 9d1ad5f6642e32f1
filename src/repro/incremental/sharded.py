"""Signature-sharded streaming index for parallel ingest.

:class:`ShardedMutableBlockIndex` splits the inverted index of
:class:`~repro.incremental.MutableBlockIndex` across K shards by *signature*
(token): shard ``k`` owns every block whose key hashes to ``k``
(:func:`repro.parallel.shard_of_signature`), so the shards' block sets are
disjoint and their mutations are independent — the routing layer the
ROADMAP's "sharded MutableBlockIndex for parallel ingest" asks for.

Every mutation is routed to **all** shards with the entity's signatures
filtered per shard (a shard whose filter yields no signature still registers
the entity with an empty row).  That choice is what makes the shards
mergeable by construction:

* every shard sees every entity in the same order, so node ids — and the
  canonical batch numbering — are **identical across shards**;
* per-entity aggregates are sums of disjoint per-shard block contributions;
* the global candidate-pair set is the packed-key union of the per-shard
  pair sets (a pair co-occurring under tokens of two shards appears in
  both and is deduplicated by the merge);
* the entity x block CSR is the row-wise concatenation of the shard CSRs
  with shard-major block-id offsets.

Tokenization — the CPU-heavy Python part of ingest — is performed once per
mutation by the router (never K times) and, for bulk loads, can be fanned
out over a :class:`repro.parallel.ParallelExecutor`; the per-shard index
updates are independent by construction and ready to be dispatched to
shard-affine workers.

:meth:`ShardedMutableBlockIndex.statistics` exposes the same duck-typed
statistics contract as :class:`~repro.incremental.IncrementalStatistics`,
and :meth:`candidate_set`/:meth:`canonical_candidates`/:meth:`snapshot_blocks`
mirror the unsharded index — the equivalence tests assert a sharded index
fed any interleaving of add/remove/update/bulk matches the unsharded one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..blocking.base import BlockingMethod
from ..blocking.token_blocking import TokenBlocking
from ..core.pruning.base import BlockTotals
from ..datamodel import BlockCollection, CandidateSet, EntityIndexSpace, EntityProfile
from ..pairs import pack_pair_keys, sorted_unique
from ..weights.sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    PairCooccurrenceCache,
    entity_block_csr_from_memberships,
)
from .index import DuplicateEntityError, MutableBlockIndex, UnknownEntityError


class ShardedStatistics:
    """Merged read-only statistics over the shards (duck-types
    :class:`~repro.incremental.IncrementalStatistics`).

    Aggregates are merged on construction; obtain a fresh view per feature
    computation, as with the unsharded index.
    """

    def __init__(self, index: "ShardedMutableBlockIndex") -> None:
        self._index = index
        self._pair_cache = PairCooccurrenceCache()
        shards = index.shards
        num_slots = index.num_slots

        self.num_blocks = sum(shard.num_nonempty_blocks for shard in shards)
        self.total_cardinality = float(
            sum(shard.total_cardinality for shard in shards)
        )

        def summed(attribute: str) -> np.ndarray:
            total = np.zeros(num_slots, dtype=np.float64)
            for shard in shards:
                total += getattr(shard, attribute).view()
            return total

        self.blocks_per_entity = summed("_blocks_per_entity")
        self.entity_cardinality = summed("_entity_cardinality")
        self.entity_inv_cardinality = summed("_entity_inv_cardinality")
        self.entity_inv_size = summed("_entity_inv_size")
        self._degrees: Optional[np.ndarray] = None
        self._merged: Optional[Tuple[EntityBlockCSR, np.ndarray, np.ndarray]] = None

    def local_candidate_counts_sparse(self) -> np.ndarray:
        """LCP per node slot — distinct live candidates, from the merged pairs.

        Per-shard degrees cannot be summed (a pair co-occurring under two
        shards' tokens would count twice); the merged distinct pair set
        gives the exact global degree.
        """
        if self._degrees is None:
            left, right = self._index._merged_pairs()
            degrees = np.zeros(self._index.num_slots, dtype=np.float64)
            if left.size:
                degrees += np.bincount(left, minlength=degrees.size)
                degrees += np.bincount(right, minlength=degrees.size)
            self._degrees = degrees
        return self._degrees

    def pair_cooccurrence(self, candidates: CandidateSet) -> PairCooccurrence:
        """Batched co-occurrence aggregates over the merged shard CSR."""
        if self._merged is None:
            self._merged = self._index._merged_csr()
        csr, inverse_cardinalities, inverse_sizes = self._merged
        return self._pair_cache.get(
            candidates, csr, inverse_cardinalities, inverse_sizes, self._index.sides()
        )


class ShardedMutableBlockIndex:
    """K signature-sharded :class:`MutableBlockIndex` instances behind the
    unsharded aggregate/equivalence contract.

    Parameters
    ----------
    blocking:
        The signature extractor (default :class:`TokenBlocking`); the router
        tokenizes with it once per mutation.
    bilateral:
        Clean-Clean (``True``) vs Dirty ER (``False``) stream shape.
    num_shards:
        Number of signature shards (usually the intended worker count).
    name:
        Label used in snapshots and reports.
    executor:
        Optional :class:`repro.parallel.ParallelExecutor`; bulk-load
        tokenization is fanned out over it.
    """

    def __init__(
        self,
        blocking: Optional[BlockingMethod] = None,
        bilateral: bool = False,
        num_shards: int = 2,
        name: str = "sharded-stream",
        executor=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.blocking = blocking if blocking is not None else TokenBlocking()
        self.bilateral = bilateral
        self.num_shards = num_shards
        self.name = name
        self.executor = executor
        self.shards: List[MutableBlockIndex] = [
            MutableBlockIndex(
                blocking=self.blocking, bilateral=bilateral, name=f"{name}#{shard}"
            )
            for shard in range(num_shards)
        ]
        # merged-pair cache, invalidated by every mutation (the merge is an
        # O(P log P) union across shards — too costly per num_pairs read)
        self._mutations = 0
        self._pairs_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._wal = None

    # -- durability --------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Compaction generation (identical in every shard)."""
        return self.shards[0].generation

    def attach_wal(self, wal) -> None:
        """Journal every mutation of this router to ``wal``.

        The sharded index keeps **one** log at the router level — shards
        never journal (their ``_wal`` stays ``None``), so each logical
        operation appears exactly once.  A fresh log receives a meta record
        describing the topology so recovery can rebuild the router before
        any snapshot exists.
        """
        wal.open()
        if wal.is_fresh:
            wal.append_record(
                {
                    "op": "meta",
                    "format": 1,
                    "kind": "sharded",
                    "bilateral": self.bilateral,
                    "num_shards": self.num_shards,
                    "name": self.name,
                }
            )
        self._wal = wal

    def _log_record(self, record) -> None:
        if self._wal is not None:
            self._wal.append_record(record)

    # -- routing helpers ---------------------------------------------------------
    def _split_signatures(self, signatures) -> List[List[str]]:
        from ..parallel.planner import shard_of_signature

        split: List[List[str]] = [[] for _ in range(self.num_shards)]
        for signature in signatures:
            split[shard_of_signature(signature, self.num_shards)].append(signature)
        return split

    def _shards_of(self, signatures) -> List[int]:
        """The shards an operation's signatures route to (log observability)."""
        from ..parallel.planner import shard_of_signature

        return sorted(
            {shard_of_signature(signature, self.num_shards) for signature in signatures}
        )

    def _tokenize_bulk(self, profiles: Sequence[EntityProfile]) -> List[List[str]]:
        if self.executor is not None and self.executor.workers > 1 and len(profiles) > 1:
            from ..parallel.executor import split_ranges
            from ..parallel.worker import signature_lists_chunk

            chunks = self.executor.starmap(
                signature_lists_chunk,
                [
                    (tuple(profiles[start:stop]), self.blocking)
                    for start, stop in split_ranges(
                        len(profiles), self.executor.workers
                    )
                ],
            )
            return [lists for chunk in chunks for lists in chunk]
        return self.blocking.signature_lists(profiles)

    # -- mutations ---------------------------------------------------------------
    def add_entity(self, profile: EntityProfile, side: int = 0):
        """Insert one entity into every shard; returns the per-shard deltas."""
        self.shards[0]._check_side(side)
        if self.shards[0].has_entity(profile.entity_id, side=side):
            raise DuplicateEntityError(profile.entity_id, side)
        signatures = sorted(self.blocking.signatures_of(profile))
        if self._wal is not None:
            self._log_record(
                {
                    "op": "add",
                    "id": profile.entity_id,
                    "side": side,
                    "sig": signatures,
                    "shards": self._shards_of(signatures),
                }
            )
        return self._apply_insert(profile.entity_id, side, signatures)

    def _apply_insert(self, entity_id: str, side: int, signatures):
        """Insert with pre-extracted signatures: tokenize never, split per
        shard, forward to each shard's replay entry point."""
        self._mutations += 1
        split = self._split_signatures(signatures)
        return [
            shard._apply_insert(entity_id, side, split[position])
            for position, shard in enumerate(self.shards)
        ]

    def add_entities(self, profiles, side: int = 0):
        """Insert several entities one at a time (per-shard delta lists)."""
        return [self.add_entity(profile, side=side) for profile in profiles]

    def add_entities_bulk(self, profiles: Sequence[EntityProfile], side: int = 0):
        """One-pass bulk load: tokenize once (optionally across workers),
        then one per-shard bulk insert each; returns the per-shard deltas."""
        profiles = list(profiles)
        self.shards[0]._check_side(side)
        seen_batch = set()
        for profile in profiles:
            if self.shards[0].has_entity(profile.entity_id, side=side):
                raise DuplicateEntityError(profile.entity_id, side)
            if profile.entity_id in seen_batch:
                raise DuplicateEntityError(profile.entity_id, side)
            seen_batch.add(profile.entity_id)
        signature_lists = self._tokenize_bulk(profiles)
        entries = [
            (profile.entity_id, list(signatures))
            for profile, signatures in zip(profiles, signature_lists)
        ]
        if self._wal is not None:
            self._log_record({"op": "bulk", "side": side, "entities": entries})
        return self._apply_bulk(entries, side)

    def _apply_bulk(self, entries, side: int):
        """Bulk-insert pre-tokenized ``(entity_id, signatures)`` entries."""
        self._mutations += 1
        per_shard: List[List[Tuple[str, List[str]]]] = [
            [] for _ in range(self.num_shards)
        ]
        for entity_id, signatures in entries:
            split = self._split_signatures(signatures)
            for position in range(self.num_shards):
                per_shard[position].append((entity_id, split[position]))
        return [
            shard._apply_bulk(per_shard[position], side)
            for position, shard in enumerate(self.shards)
        ]

    def remove_entity(self, entity_id: str, side: int = 0):
        """Retract one entity from every shard; returns the per-shard deltas."""
        if not self.shards[0].has_entity(entity_id, side=side):
            raise UnknownEntityError(entity_id, side)
        self._log_record({"op": "remove", "id": entity_id, "side": side})
        return self._apply_remove(entity_id, side)

    def _apply_remove(self, entity_id: str, side: int):
        self._mutations += 1
        return [shard.remove_entity(entity_id, side=side) for shard in self.shards]

    def update_entity(self, profile: EntityProfile, side: int = 0):
        """Correct one entity in place in every shard (retract + re-insert)."""
        self.shards[0]._check_side(side)
        if not self.shards[0].has_entity(profile.entity_id, side=side):
            raise UnknownEntityError(profile.entity_id, side)
        signatures = sorted(self.blocking.signatures_of(profile))
        if self._wal is not None:
            self._log_record(
                {
                    "op": "update",
                    "id": profile.entity_id,
                    "side": side,
                    "sig": signatures,
                    "shards": self._shards_of(signatures),
                }
            )
        return self._apply_update(profile.entity_id, side, signatures)

    def _apply_update(self, entity_id: str, side: int, signatures):
        self._mutations += 1
        split = self._split_signatures(signatures)
        return [
            shard._apply_update(entity_id, side, split[position])
            for position, shard in enumerate(self.shards)
        ]

    def compact(self) -> None:
        """Compact every shard (see :meth:`MutableBlockIndex.compact`).

        Shards rebuild their live entities in the same arrival order, so
        node ids stay aligned across shards and the canonical view is
        unchanged.  The router's log (if any) is untouched — compaction does
        not change the logical state.
        """
        self._mutations += 1  # raw node ids are renumbered — drop the cache
        for shard in self.shards:
            shard.compact()

    def _dump_live_entities(self):
        """Live entities per side with their signatures merged across shards
        (shard-major per entity) — the sharded snapshot state.

        Every shard registers every entity in the same order, so per-side
        dumps align positionally; re-splitting the merged signature list on
        rebuild routes each signature back to its original shard in its
        original order.
        """
        dumps = [shard._dump_live_entities() for shard in self.shards]
        merged = {}
        for side, entries in dumps[0].items():
            merged[side] = [
                (
                    entity_id,
                    [
                        signature
                        for dump in dumps
                        for signature in dump[side][position][1]
                    ],
                )
                for position, (entity_id, _) in enumerate(entries)
            ]
        return merged

    # -- delta shipping ----------------------------------------------------------
    def epochs(self) -> List[int]:
        """Per-shard mutation epochs (see :attr:`MutableBlockIndex.epoch`)."""
        return [shard.epoch for shard in self.shards]

    def enable_delta_tracking(self) -> List[int]:
        """Arm delta tracking on every shard; returns the per-shard epochs."""
        return [shard.enable_delta_tracking() for shard in self.shards]

    def export_deltas(self, since_epochs) -> Optional[List[dict]]:
        """Per-shard deltas since ``since_epochs``, all-or-nothing.

        Returns ``None`` — without rebasing any shard's tracker — unless
        every shard can serve a delta from its requested epoch; callers must
        then fall back to full exports for all shards.
        """
        if len(since_epochs) != self.num_shards:
            raise ValueError("one base epoch per shard required")
        for shard, epoch in zip(self.shards, since_epochs):
            if shard._delta is None or shard._delta.base_epoch != int(epoch):
                return None
        return [
            shard.export_delta(epoch)
            for shard, epoch in zip(self.shards, since_epochs)
        ]

    # -- aggregate contract ------------------------------------------------------
    @property
    def num_entities(self) -> int:
        """Number of live entities (identical in every shard)."""
        return self.shards[0].num_entities

    @property
    def num_slots(self) -> int:
        """Number of node ids ever assigned (identical in every shard)."""
        return self.shards[0].num_slots

    @property
    def num_blocks(self) -> int:
        """Total number of blocks across the shards (disjoint by token)."""
        return sum(shard.num_blocks for shard in self.shards)

    @property
    def num_pairs(self) -> int:
        """Number of live distinct candidate pairs across the shards."""
        return int(self._merged_pairs()[0].size)

    def __len__(self) -> int:
        return self.num_entities

    def entity_id(self, node: int) -> str:
        """The identifier of the entity holding node id ``node``."""
        return self.shards[0].entity_id(node)

    def side_of(self, node: int) -> int:
        """0/1 for live nodes, -1 for tombstoned slots."""
        return self.shards[0].side_of(node)

    def sides(self) -> np.ndarray:
        """Per-node side flags (0 = first, 1 = second, -1 = removed)."""
        return self.shards[0].sides()

    def is_live(self, node: int) -> bool:
        """Whether the node slot currently holds a live entity."""
        return self.shards[0].is_live(node)

    def has_entity(self, entity_id: str, side: int = 0) -> bool:
        """Whether ``entity_id`` is currently live on ``side``."""
        return self.shards[0].has_entity(entity_id, side=side)

    def node_of(self, entity_id: str, side: int = 0) -> int:
        """The node id of a live entity (identical in every shard)."""
        return self.shards[0].node_of(entity_id, side=side)

    def index_space(self) -> EntityIndexSpace:
        """An index space sized to the live per-side totals."""
        return self.shards[0].index_space()

    def block_totals(self) -> BlockTotals:
        """``Σ|b|`` summed over the shards (their blocks are disjoint by
        construction) and the live entity count, in O(shards)."""
        return BlockTotals(
            sum(shard.total_block_assignments for shard in self.shards),
            self.index_space().total,
        )

    def canonical_node_ids(self) -> np.ndarray:
        """Compact batch node id per slot (identical in every shard)."""
        return self.shards[0].canonical_node_ids()

    # -- merged read-side structures ---------------------------------------------
    def _merged_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct live pairs across shards, sorted by packed key.

        Cached per mutation epoch: repeated reads (``num_pairs`` polling,
        statistics, candidate sets) between mutations pay the cross-shard
        union once.
        """
        if self._pairs_cache is not None and self._pairs_cache[0] == self._mutations:
            return self._pairs_cache[1], self._pairs_cache[2]
        parts = []
        for shard in self.shards:
            alive = shard._pair_alive.view()
            parts.append(
                pack_pair_keys(
                    shard._pair_left.view()[alive], shard._pair_right.view()[alive]
                )
            )
        # sort + adjacent-diff, not np.unique: the hash path is ~20x slower
        # on packed int64 keys, and the result is the same sorted distinct set
        keys = sorted_unique(np.concatenate(parts))
        left, right = keys >> np.int64(32), keys & np.int64((1 << 32) - 1)
        self._pairs_cache = (self._mutations, left, right)
        return left, right

    def candidate_set(self) -> CandidateSet:
        """All live distinct candidate pairs, sorted by packed pair key."""
        left, right = self._merged_pairs()
        return CandidateSet(left, right, self.index_space())

    def canonical_candidates(self, candidates: CandidateSet) -> CandidateSet:
        """Renumber a live candidate set into the compact batch node space."""
        return self.shards[0].canonical_candidates(candidates)

    def _merged_csr(self) -> Tuple[EntityBlockCSR, np.ndarray, np.ndarray]:
        """Row-wise concatenation of the shard CSRs with block-id offsets.

        Returns the merged entity x block CSR plus the concatenated
        per-block inverse weight vectors, aligned with the offset block ids.
        """
        num_slots = self.num_slots
        node_parts: List[np.ndarray] = []
        block_parts: List[np.ndarray] = []
        inv_cardinality_parts: List[np.ndarray] = []
        inv_size_parts: List[np.ndarray] = []
        offset = 0
        for shard in self.shards:
            csr = shard.csr()
            counts = np.diff(csr.indptr)
            node_parts.append(
                np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            )
            block_parts.append(csr.indices + offset)
            inv_cardinality_parts.append(shard._inverse_block_cardinalities.view())
            inv_size_parts.append(shard._inverse_block_sizes.view())
            offset += csr.num_blocks
        merged = entity_block_csr_from_memberships(
            np.concatenate(node_parts) if node_parts else np.empty(0, dtype=np.int64),
            np.concatenate(block_parts) if block_parts else np.empty(0, dtype=np.int64),
            num_slots,
            offset,
            assume_unique=True,
        )
        inverse_cardinalities = (
            np.concatenate(inv_cardinality_parts)
            if inv_cardinality_parts
            else np.empty(0, dtype=np.float64)
        )
        inverse_sizes = (
            np.concatenate(inv_size_parts)
            if inv_size_parts
            else np.empty(0, dtype=np.float64)
        )
        return merged, inverse_cardinalities, inverse_sizes

    def csr(self) -> EntityBlockCSR:
        """The merged entity x block incidence structure."""
        return self._merged_csr()[0]

    def statistics(self) -> ShardedStatistics:
        """A fresh merged statistics view over the shards' current state."""
        return ShardedStatistics(self)

    def snapshot_blocks(self) -> BlockCollection:
        """All comparison-spawning blocks across the shards, canonical ids.

        Block order is shard-major (then per-shard insertion order), which
        differs from the unsharded index's global insertion order; no
        downstream consumer depends on block order.
        """
        collections = [shard.snapshot_blocks() for shard in self.shards]
        blocks = [block for collection in collections for block in collection]
        return BlockCollection(blocks, self.index_space(), name=self.name)
