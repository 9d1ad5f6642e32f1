"""Shard planning: stable hash-partitioning of profiles and signatures.

The parallel engine partitions work along two axes:

* **entity shards** — :class:`ShardPlanner` hash-partitions the profiles of
  one or two collections into K shards for parallel tokenization.  Global
  node ids (the concatenated ``(first, second)`` positions every other
  subsystem uses) are assigned *before* sharding and travel with each shard,
  so the merged output is independent of the partitioning;
* **signature shards** — :func:`shard_of_signature` routes blocking
  signatures (tokens) to shards, which is how
  :class:`repro.incremental.ShardedMutableBlockIndex` splits its inverted
  index: blocks are partitioned disjointly by token, every shard sees every
  entity but only its own token subset.

Both use :func:`stable_hash` (CRC-32 of the UTF-8 bytes): Python's builtin
``hash`` is salted per process, which would make shard assignment — and with
it every merged array — non-reproducible across runs and worker counts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..datamodel.entity import EntityCollection, EntityProfile


def stable_hash(text: str) -> int:
    """A process-stable 32-bit hash of a string (CRC-32 of UTF-8)."""
    return zlib.crc32(text.encode("utf-8"))


def shard_of_signature(signature: str, num_shards: int) -> int:
    """The shard owning a blocking signature (token)."""
    return stable_hash(signature) % num_shards


@dataclass(frozen=True)
class EntityShard:
    """One shard of profiles with their stable global node ids."""

    #: shard position in ``0 .. num_shards-1``
    shard_id: int
    #: the shard's profiles, in global node-id order
    profiles: Tuple[EntityProfile, ...]
    #: global node id of each profile (parallel to ``profiles``)
    nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.profiles)


class ShardPlanner:
    """Hash-partition entity profiles into K shards with stable global ids.

    Parameters
    ----------
    num_shards:
        Number of shards (usually the worker count).

    The shard of a profile is ``stable_hash(entity_id) % K``, so the
    assignment is a pure function of the entity identifier — independent of
    arrival order, collection sizes and the process environment.  Node ids
    are the global concatenated positions; they are recorded per shard, so
    any per-shard output carrying node ids merges back into the global
    numbering without translation.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards

    def shard_of(self, entity_id: str) -> int:
        """The shard assigned to ``entity_id``."""
        return stable_hash(entity_id) % self.num_shards

    def plan(
        self,
        first: EntityCollection,
        second: Optional[EntityCollection] = None,
    ) -> List[EntityShard]:
        """Partition one or two collections into shards.

        Returns only non-empty shards.  Within a shard, profiles keep global
        node-id order, so per-shard tokenization emits memberships in a
        deterministic order regardless of K.
        """
        buckets: List[List[EntityProfile]] = [[] for _ in range(self.num_shards)]
        node_buckets: List[List[int]] = [[] for _ in range(self.num_shards)]
        node = 0
        for collection in (first, second):
            if collection is None:
                continue
            for profile in collection:
                shard = self.shard_of(profile.entity_id)
                buckets[shard].append(profile)
                node_buckets[shard].append(node)
                node += 1
        return [
            EntityShard(
                shard_id=shard,
                profiles=tuple(profiles),
                nodes=np.asarray(nodes, dtype=np.int64),
            )
            for shard, (profiles, nodes) in enumerate(zip(buckets, node_buckets))
            if profiles
        ]
