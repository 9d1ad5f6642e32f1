"""Signature-sharded streaming index, and the merged read over K shards.

K signature shards are mergeable by construction.  Shard ``k`` owns every
block whose key hashes to ``k`` (:func:`shard_of_signature`),
and every mutation is routed to **all** shards with the entity's signatures
filtered per shard (a shard whose filter yields no signature still registers
the entity with an empty row).  :class:`MergedIndexView` is the read-only
merge of such shards — any :class:`~repro.incremental.IndexState` objects:
live indexes, or the bare states a router was shipped — and guarantees, because:

* every shard sees every entity in the same order, node ids — and the
  canonical batch numbering — are **identical across shards** (registry
  reads delegate to shard 0);
* the shards' block sets are **disjoint**, so per-entity aggregates,
  ``|B|``, ``||B||`` and ``Σ|b|`` are **sums** of per-shard contributions;
* the entity x block CSR is the row-wise concatenation of the shard CSRs
  with **shard-major** block-id offsets, and the global candidate-pair set
  is *derived* from it by the reduce pass one state runs: a pair co-occurring
  under tokens of two shards is one pair with terms from both.  No shard
  stores its pairs, so there is no per-shard pair list to read or merge.

:class:`ShardedMutableBlockIndex` is a merged view that also routes
mutations: tokenization — the CPU-heavy Python part of ingest — is
performed once per mutation by the router (never K times); the per-shard
index updates are independent by construction.  The
equivalence tests assert a sharded index fed any interleaving of
add/remove/update/bulk matches the unsharded one, statistic by statistic.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..blocking.base import BlockingMethod
from ..blocking.token_blocking import TokenBlocking
from ..core.pruning.base import BlockTotals
from ..datamodel.block import BlockCollection
from ..datamodel.entity import EntityIndexSpace, EntityProfile
from ..weights.sparse import EntityBlockCSR
from .index import DuplicateEntityError, MutableBlockIndex, UnknownEntityError
from .state import IndexState, IndexStatistics, LiveCandidates, merged_csr


def stable_hash(text: str) -> int:
    """A process-stable 32-bit hash of a string (CRC-32 of UTF-8).

    Python's builtin ``hash`` is salted per process, which would make shard
    assignment — and with it every merged array — non-reproducible across
    runs and processes.
    """
    return zlib.crc32(text.encode("utf-8"))


def shard_of_signature(signature: str, num_shards: int) -> int:
    """The shard owning a blocking signature (token)."""
    return stable_hash(signature) % num_shards


class MergedIndexView:
    """K signature shards behind the read surface of one
    :class:`~repro.incremental.IndexState` (see the module docstring for what
    makes them mergeable).

    Parameters
    ----------
    shards:
        The per-shard states, in shard order.
    entity_id:
        Resolves a node id to its entity identifier (a bare state holds no
        identifiers; node ids are append-only in the authority index, so its
        live ``entity_id`` is correct at any pinned offset up to now).
    name:
        Label used in snapshots and reports.
    """

    def __init__(
        self,
        shards: Sequence[IndexState],
        entity_id: Callable[[int], str],
        name: str = "merged",
    ) -> None:
        self.shards = list(shards)
        self.bilateral = bool(self.shards[0].bilateral)
        self.name = name
        self._entity_id = entity_id

    # -- registry (identical in every shard) -------------------------------------
    @property
    def num_entities(self) -> int:
        """Number of live entities."""
        return self.shards[0].num_entities

    @property
    def num_slots(self) -> int:
        """Number of node ids ever assigned."""
        return self.shards[0].num_slots

    @property
    def num_blocks(self) -> int:
        """Total number of blocks across the shards (disjoint by token)."""
        return sum(shard.num_blocks for shard in self.shards)

    def __len__(self) -> int:
        return self.num_entities

    def entity_id(self, node: int) -> str:
        """The identifier of the entity holding node id ``node``."""
        return self._entity_id(int(node))

    def sides(self) -> np.ndarray:
        """Per-node side flags (0 = first, 1 = second, -1 = removed)."""
        return self.shards[0].sides()

    def is_live(self, node: int) -> bool:
        """Whether the node slot currently holds a live entity."""
        return self.shards[0].is_live(node)

    def index_space(self) -> EntityIndexSpace:
        """An index space sized to the live per-side totals."""
        return self.shards[0].index_space()

    def canonical_node_ids(self) -> np.ndarray:
        """Compact batch node id per slot."""
        return self.shards[0].canonical_node_ids()

    def block_totals(self) -> BlockTotals:
        """``Σ|b|`` summed over the shards and the live entity count, in
        O(shards)."""
        return BlockTotals(
            sum(shard.total_block_assignments for shard in self.shards),
            self.index_space().total,
        )

    # -- merged read-side structures ---------------------------------------------
    def candidate_set(self) -> LiveCandidates:
        """All live distinct candidate pairs, derived from the merged CSR."""
        return self.statistics().live_candidates()

    def csr(self) -> EntityBlockCSR:
        """The merged entity x block incidence structure."""
        return merged_csr(self.shards)[0]

    def statistics(self) -> IndexStatistics:
        """A fresh merged statistics view over the shards' current state."""
        return IndexStatistics(self.shards)


class ShardedMutableBlockIndex(MergedIndexView):
    """K signature-sharded :class:`MutableBlockIndex` instances behind the
    unsharded aggregate/equivalence contract: a :class:`MergedIndexView`
    that also routes mutations.

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
    """

    def __init__(
        self,
        blocking: Optional[BlockingMethod] = None,
        bilateral: bool = False,
        num_shards: int = 2,
        name: str = "sharded-stream",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.blocking = blocking if blocking is not None else TokenBlocking()
        self.num_shards = num_shards
        shards = [
            MutableBlockIndex(
                blocking=self.blocking, bilateral=bilateral, name=f"{name}#{shard}"
            )
            for shard in range(num_shards)
        ]
        super().__init__(shards, shards[0].entity_id, name)
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
        split: List[List[str]] = [[] for _ in range(self.num_shards)]
        for signature in signatures:
            split[shard_of_signature(signature, self.num_shards)].append(signature)
        return split

    def _shards_of(self, signatures) -> List[int]:
        """The shards an operation's signatures route to (log observability)."""
        return sorted(
            {shard_of_signature(signature, self.num_shards) for signature in signatures}
        )

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
        split = self._split_signatures(signatures)
        return [
            shard._apply_insert(entity_id, side, split[position])
            for position, shard in enumerate(self.shards)
        ]

    def add_entities(self, profiles, side: int = 0):
        """Insert several entities one at a time (per-shard delta lists)."""
        return [self.add_entity(profile, side=side) for profile in profiles]

    def add_entities_bulk(self, profiles: Sequence[EntityProfile], side: int = 0):
        """One-pass bulk load: tokenize once, then one per-shard bulk insert
        each; returns the per-shard deltas."""
        profiles = list(profiles)
        self.shards[0]._check_side(side)
        seen_batch = set()
        for profile in profiles:
            if self.shards[0].has_entity(profile.entity_id, side=side):
                raise DuplicateEntityError(profile.entity_id, side)
            if profile.entity_id in seen_batch:
                raise DuplicateEntityError(profile.entity_id, side)
            seen_batch.add(profile.entity_id)
        signature_lists = self.blocking.signature_lists(profiles)
        entries = [
            (profile.entity_id, list(signatures))
            for profile, signatures in zip(profiles, signature_lists)
        ]
        if self._wal is not None:
            self._log_record({"op": "bulk", "side": side, "entities": entries})
        return self._apply_bulk(entries, side)

    def _apply_bulk(self, entries, side: int):
        """Bulk-insert pre-tokenized ``(entity_id, signatures)`` entries."""
        per_shard: List[List[Tuple[str, List[str]]]] = [
            [] for _ in range(self.num_shards)
        ]
        for entity_id, signatures in entries:
            split = self._split_signatures(signatures)
            for position in range(self.num_shards):
                per_shard[position].append((entity_id, split[position]))
        return self._apply_bulk_split(per_shard, side)

    def _apply_bulk_split(self, per_shard, side: int):
        """Bulk-insert entries already split per shard: one list per shard,
        every list naming the same entities in the same order."""
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
        split = self._split_signatures(signatures)
        return [
            shard._apply_update(entity_id, side, split[position])
            for position, shard in enumerate(self.shards)
        ]

    def compact(self) -> None:
        """Compact every shard (see :meth:`MutableBlockIndex.compact`).

        Every shard renumbers the same live entities canonically, so node
        ids stay aligned across shards and the canonical view is unchanged.
        The router's log (if any) is untouched — compaction does not change
        the logical state.
        """
        for shard in self.shards:
            shard.compact()

    # -- registry lookups only a live index can answer -----------------------------
    def has_entity(self, entity_id: str, side: int = 0) -> bool:
        """Whether ``entity_id`` is currently live on ``side``."""
        return self.shards[0].has_entity(entity_id, side=side)

    def node_of(self, entity_id: str, side: int = 0) -> int:
        """The node id of a live entity (identical in every shard)."""
        return self.shards[0].node_of(entity_id, side=side)

    def snapshot_blocks(self) -> BlockCollection:
        """All comparison-spawning blocks across the shards, canonical ids.

        Block order is shard-major (then per-shard insertion order), which
        differs from the unsharded index's global insertion order; no
        downstream consumer depends on block order.
        """
        collections = [shard.snapshot_blocks() for shard in self.shards]
        blocks = [block for collection in collections for block in collection]
        return BlockCollection(blocks, self.index_space(), name=self.name)
