"""Snapshot state codecs for the streaming index and matching session.

A snapshot is the compacted logical state of an index: its *live* entities
per side, each with the stored signatures (block keys) of its CSR row —
exactly what :meth:`MutableBlockIndex.compact` replays through the bulk
loader.  Rebuilding from a snapshot therefore goes through the same
``_apply_bulk`` path compaction uses, which guarantees the canonical view
(canonical candidates, snapshot blocks, aggregates) of the rebuilt index
equals the original's.

The rebuild has one further property this module (and the session codec)
leans on: a per-side bulk load assigns raw node ids equal to the canonical
ids.  Stored per-pair state (insert-time probabilities, online top-K
membership) is serialized keyed by *canonical packed pair key* — independent
of raw node ids — so on the rebuilt index those keys are the raw keys the
session keeps its per-pair state under, and the snapshot's sorted key /
probability arrays are that state as they stand.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..incremental.index import MutableBlockIndex
from ..incremental.sharded import ShardedMutableBlockIndex
from ..pairs import MAX_NODE_ID, pack_pair_keys
from .log import WriteAheadLog

#: snapshot/meta record state format version
STATE_FORMAT = 1


class StateFormatError(ValueError):
    """A snapshot or log ``meta`` record was written in a state format this
    version does not read."""


def check_state_format(state: Dict[str, Any], source: str = "snapshot") -> None:
    """Refuse a snapshot or log ``meta`` record whose ``format`` is not
    :data:`STATE_FORMAT`; ``source`` names which one it is in the error."""
    found = state.get("format")
    if found != STATE_FORMAT:
        raise StateFormatError(
            f"the {source} holds state format {found!r}; this version reads "
            f"format {STATE_FORMAT} only"
        )


def dump_slot_layout(index) -> Optional[Dict[str, Any]]:
    """The raw node-slot layout of a :class:`MutableBlockIndex`.

    ``sides`` dumps only *live* entities in per-side arrival order; the slot
    layout records which raw node id each of those entries occupies, plus
    the total slot count — enough to rebuild an index in the **same node
    space** as the dumping one (live slots re-inserted at their original
    ids, dead slots re-registered as tombstones).  That is what lets a
    shard replica adopt a mid-run checkpoint of a live authority, whose
    tombstoned slots are never reused, without diverging from the node ids
    the authority keeps assigning (see ``ShardReplica``).

    Sharded indexes have no single raw node space to dump; they return
    ``None`` (replicas never adopt from them).
    """
    if isinstance(index, ShardedMutableBlockIndex):
        return None
    sides = index.sides()
    return {
        "num_slots": int(sides.size),
        "nodes": {
            side: np.flatnonzero(sides == side).tolist()
            for side in ((0, 1) if index.bilateral else (0,))
        },
    }


def dump_index_state(index) -> Dict[str, Any]:
    """The logical state of an index: topology plus live entities per side."""
    sharded = isinstance(index, ShardedMutableBlockIndex)
    return {
        "kind": "sharded" if sharded else "index",
        "bilateral": index.bilateral,
        "name": index.name,
        "num_shards": index.num_shards if sharded else None,
        "blocking": index.blocking,
        "sides": index._dump_live_entities(),
    }


def construct_index(state: Dict[str, Any], blocking=None):
    """An empty index matching a state/meta dict's topology.

    ``state`` may be a snapshot's ``"index"`` dict or a WAL meta record;
    both carry ``kind``/``bilateral``/``num_shards``.  ``blocking``
    overrides the stored extractor (meta records, being JSON, never store
    one — the default token blocking is used).
    """
    if blocking is None:
        blocking = state.get("blocking")
    name = state.get("name") or "stream"
    if state["kind"] == "sharded":
        return ShardedMutableBlockIndex(
            blocking=blocking,
            bilateral=state["bilateral"],
            num_shards=int(state["num_shards"]),
            name=name,
        )
    if state["kind"] != "index":
        raise ValueError(f"unknown index kind {state['kind']!r} in WAL state")
    return MutableBlockIndex(
        blocking=blocking, bilateral=state["bilateral"], name=name
    )


def build_index_from_state(state: Dict[str, Any], blocking=None):
    """Rebuild an index from a snapshot state dict.

    Live entities are bulk-loaded per side (side 0 first) from their stored
    signatures — the compaction path — so the rebuilt index's canonical
    view equals the dumped one, with raw node ids equal to canonical ids.
    """
    index = construct_index(state, blocking=blocking)
    for side in sorted(state["sides"]):
        entries = state["sides"][side]
        if entries:
            index._apply_bulk(entries, int(side))
    return index


def write_index_snapshot(index, wal: WriteAheadLog):
    """Snapshot an index's live state into the WAL directory.

    Embeds the current log offset, so recovery replays only records behind
    it.  Call between mutations (never mid-operation); with ``sync="batch"``
    the offset may run ahead of the fsynced log tail — recovery then
    prefers the (durable, consistent) snapshot.
    """
    return wal.write_snapshot(
        {
            "format": STATE_FORMAT,
            "log_offset": wal.log_offset,
            "index": dump_index_state(index),
            "slots": dump_slot_layout(index),
            "session": None,
        }
    )


# -- session state -----------------------------------------------------------------

def canonical_pair_keys(index, keys: np.ndarray) -> np.ndarray:
    """The canonical packed keys of pairs given by raw packed keys.

    The result is computed over canonical node ids, so it is invariant under
    compaction and snapshot rebuilds — the stable identity per-pair session
    state is serialized under.
    """
    canonical = index.canonical_node_ids()
    left = canonical[keys >> np.int64(32)]
    right = canonical[keys & np.int64(MAX_NODE_ID - 1)]
    return pack_pair_keys(np.minimum(left, right), np.maximum(left, right))


def session_snapshot_state(session) -> Dict[str, Any]:
    """The full durable state of a :class:`MatchingSession`.

    Index state plus the frozen model, the batch pruning algorithm, the
    online policy (object + node-id-independent state) and the insert-time
    probabilities keyed by canonical pair key (stored sorted by key, which
    is exactly the store a rebuilt session starts from).
    """
    index = session.index
    raw, probabilities = session.insert_time_probabilities()
    keys = canonical_pair_keys(index, raw)
    order = np.argsort(keys)
    return {
        "format": STATE_FORMAT,
        "log_offset": session.wal.log_offset,
        "index": dump_index_state(index),
        "slots": dump_slot_layout(index),
        "session": {
            "model": session.model,
            "pruning": session.pruning,
            "policy": session.online,
            "policy_state": session.online.export_state(
                lambda raw_keys: canonical_pair_keys(index, raw_keys)
            ),
            "probabilities": probabilities[order],
            "pair_keys": keys[order],
            "top_k": session._top_k,
            "snapshot_every": session._snapshot_every,
        },
    }
