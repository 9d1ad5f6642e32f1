"""Signature shards of a streaming index, and the merged read over K of them.

K signature shards are mergeable by construction.  Shard ``k`` owns every
block whose key hashes to ``k`` (:func:`shard_of_signature`), and every
logged mutation reaches **all** shards with the entity's signatures filtered
per shard (a shard whose filter yields no signature still registers the
entity with an empty row) — the way the shard replicas of
:mod:`repro.serve.workers` follow the daemon's write-ahead log.
:class:`MergedIndexView` is the read-only merge of such shards — any
:class:`~repro.incremental.IndexState` objects: live indexes, or the bare
states a router was shipped — and guarantees, because:

* every shard sees every entity in the same order, node ids — and the
  canonical batch numbering — are **identical across shards** (registry
  reads delegate to shard 0);
* the shards' block sets are **disjoint**, so the entity x block CSR is the
  row-wise concatenation of the shard CSRs with **shard-major** block-id
  offsets, and every statistic — per-entity aggregates, ``|B|``, ``||B||``,
  the block totals and the candidate-pair set — is *derived* from it by the
  exact read one state runs: a pair co-occurring under tokens of two shards
  is one pair with terms from both.  No shard stores its pairs or its
  aggregates, so there is nothing per shard to sum or merge.

The equivalence tests assert that K replicas fed the log of any interleaving
of add/remove/update/bulk, merged, match the unsharded index statistic by
statistic.
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence

import numpy as np

from ..blocking.cleaning import NO_CLEANING, BlockCleaning
from ..datamodel.entity import EntityIndexSpace
from ..weights.sparse import EntityBlockCSR
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

    # -- merged read-side structures ---------------------------------------------
    def candidate_set(self) -> LiveCandidates:
        """All live distinct candidate pairs, derived from the merged CSR."""
        return self.statistics().live_candidates()

    def csr(self) -> EntityBlockCSR:
        """The merged entity x block incidence structure."""
        return merged_csr(self.shards)

    def statistics(self, cleaning: BlockCleaning = NO_CLEANING) -> IndexStatistics:
        """A fresh merged statistics view over the shards' current state,
        read under ``cleaning``."""
        return IndexStatistics(self.shards, cleaning)

