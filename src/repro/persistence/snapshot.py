"""Snapshot states for the streaming index and matching session.

A snapshot is the writer's own state, compacted
(:meth:`MutableBlockIndex.compacted_state <repro.incremental.MutableBlockIndex.compacted_state>`):
the live rows in canonical order, the blocks with a live member renumbered in
their old order, the CSR over them and the LCP degrees as held — stored as
arrays in a container (:mod:`repro.persistence.container`), never pickled.
No float sum is stored: every per-entity aggregate is derived from the rows
it is read off.  Recovery *adopts* those arrays (:meth:`~repro.incremental.MutableBlockIndex.adopt_compacted`):
it recounts what they determine exactly, rebuilds the two dictionaries, and
neither re-encodes a signature nor expands a pair.  So the recovered index's
canonical view — and its answer — equals the writer's, and its raw node ids
are the canonical ids.

Per-pair session state (insert-time probabilities, online top-K membership)
is stored keyed by *canonical packed pair key* — independent of raw node ids
— so on the recovered index those keys are the raw keys the session keeps
its per-pair state under.  The model, the pruning algorithm, the online
policy and the blocking method are stored as parameters and arrays and
restored through closed registries of names; an object outside them is not
checkpointable, and saying so is an error.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.pruning import PRUNING_ALGORITHMS, get_pruning_algorithm
from ..incremental.index import MutableBlockIndex, compacted_rows
from ..incremental.session import ONLINE_POLICIES
from ..incremental.sharded import shard_of_signature
from ..ml.state import export_model
from ..pairs import MAX_NODE_ID, pack_pair_keys
from .container import SNAPSHOT_FORMAT, pack_strings, unpack_strings
from .log import WriteAheadLog

#: the blocking methods a snapshot names, and the module defining each
BLOCKING_METHODS = {
    "TokenBlocking": "repro.blocking.token_blocking",
    "QGramsBlocking": "repro.blocking.qgrams",
    "StandardBlocking": "repro.blocking.standard_blocking",
    "SuffixArraysBlocking": "repro.blocking.suffix_arrays",
}


# -- registries ----------------------------------------------------------------------

def export_blocking(blocking) -> Dict[str, Any]:
    """A registered blocking method as its class name and parameters."""
    name = type(blocking).__name__
    if BLOCKING_METHODS.get(name) != type(blocking).__module__:
        raise ValueError(
            f"cannot checkpoint blocking method {type(blocking).__qualname__}: a "
            f"snapshot restores {sorted(BLOCKING_METHODS)} only"
        )
    return {"class": name, "parameters": dict(vars(blocking))}


def restore_blocking(state: Dict[str, Any]):
    """The blocking method :func:`export_blocking` exported."""
    name = state["class"]
    if name not in BLOCKING_METHODS:
        raise ValueError(
            f"the snapshot names blocking method {name!r}, which this version "
            f"does not restore; known: {sorted(BLOCKING_METHODS)}"
        )
    return getattr(import_module(BLOCKING_METHODS[name]), name)(**state["parameters"])


def export_pruning(pruning) -> Dict[str, Any]:
    """A registered pruning algorithm as its paper name and parameters."""
    if PRUNING_ALGORITHMS.get(getattr(pruning, "name", None)) is not type(pruning):
        raise ValueError(
            f"cannot checkpoint pruning algorithm {type(pruning).__qualname__}: a "
            f"snapshot restores {sorted(PRUNING_ALGORITHMS)} by name only"
        )
    return {"name": pruning.name, "parameters": dict(vars(pruning))}


def restore_pruning(state: Dict[str, Any]):
    """The pruning algorithm :func:`export_pruning` exported."""
    name = state["name"]
    if name not in PRUNING_ALGORITHMS:
        raise ValueError(
            f"the snapshot names pruning algorithm {name!r}, which this version "
            f"does not restore; known: {sorted(PRUNING_ALGORITHMS)}"
        )
    return get_pruning_algorithm(name, **state["parameters"])


def online_policy_class(name: str):
    """The online policy class a snapshot names."""
    if name not in ONLINE_POLICIES:
        raise ValueError(
            f"the snapshot names online policy {name!r}, which this version "
            f"does not restore; known: {sorted(ONLINE_POLICIES)}"
        )
    return ONLINE_POLICIES[name]


# -- the index section ---------------------------------------------------------------

def dump_index_state(index) -> Dict[str, Any]:
    """The index section of a snapshot: topology plus the compacted state,
    entity ids and block keys as string tables."""
    state = index.compacted_state()
    state.update(
        kind="index",
        bilateral=index.bilateral,
        name=index.name,
        blocking=export_blocking(index.blocking),
        entity_ids=pack_strings(state["entity_ids"]),
        block_keys=pack_strings(state["block_keys"]),
    )
    return state


def dump_slot_layout(index) -> np.ndarray:
    """The raw node-slot layout of a :class:`MutableBlockIndex`: the side of
    every slot, -1 for a tombstone.

    The index section holds the *live* rows in canonical order; the layout
    says which raw node id each occupies (within a side, rows keep the
    slots' order) — enough for a shard replica to rebuild the **same node
    space** as the writer, tombstones included (see ``ShardReplica``).
    """
    return index.sides().copy()


def compacted_from_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """An index section with its string tables unpacked: the compacted
    state :meth:`MutableBlockIndex.adopt_compacted` takes."""
    return dict(
        state,
        entity_ids=unpack_strings(state["entity_ids"]),
        block_keys=unpack_strings(state["block_keys"]),
    )


def key_shards(block_keys: List[str], num_shards: int) -> np.ndarray:
    """The signature shard of every block key — each key hashed once."""
    return np.fromiter(
        (shard_of_signature(key, num_shards) for key in block_keys),
        dtype=np.int64,
        count=len(block_keys),
    )


def row_signatures(state: Dict[str, Any], owned: Optional[np.ndarray] = None) -> List[List[str]]:
    """Each row's signatures (block keys) in row order, restricted to the
    keys ``owned`` marks when given.

    Raises
    ------
    ValueError
        When the CSR does not fit the rows and the key table.
    """
    keys = state["block_keys"]
    indptr, indices = compacted_rows(state)
    if owned is not None:
        keep = owned[indices]
        rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(rows[keep], minlength=indptr.size - 1), out=indptr[1:])
        indices = indices[keep]
    flat = list(map(keys.__getitem__, indices.tolist()))
    bounds = indptr.tolist()
    return [flat[start:end] for start, end in zip(bounds[:-1], bounds[1:])]


def construct_index(state: Dict[str, Any], blocking=None):
    """An empty index matching a state/meta dict's topology.

    ``state`` may be a snapshot's ``"index"`` section or a WAL meta record;
    both carry ``kind``/``bilateral``, and ``kind`` must be ``"index"``.
    ``blocking`` overrides the stored method (meta records never store one —
    the default token blocking is used).
    """
    if state["kind"] != "index":
        raise ValueError(f"unknown index kind {state['kind']!r} in WAL state")
    if blocking is None and state.get("blocking") is not None:
        blocking = restore_blocking(state["blocking"])
    return MutableBlockIndex(
        blocking=blocking, bilateral=state["bilateral"], name=state.get("name") or "stream"
    )


def build_index_from_state(state: Dict[str, Any], blocking=None):
    """The index a snapshot's index section holds: a
    :class:`MutableBlockIndex` that adopted the compacted arrays, so its raw
    node ids equal the canonical ids."""
    index = construct_index(state, blocking=blocking)
    index.adopt_compacted(compacted_from_state(state))
    return index


def snapshot_state(index, log_offset: int, session=None) -> Dict[str, Any]:
    """A snapshot of ``index`` at ``log_offset``, with a session section."""
    return {
        "format": SNAPSHOT_FORMAT,
        "log_offset": log_offset,
        "index": dump_index_state(index),
        "slots": dump_slot_layout(index),
        "session": session,
    }


def write_index_snapshot(index, wal: WriteAheadLog):
    """Snapshot an index's live state into the WAL directory.

    Embeds the current log offset, so recovery replays only records behind
    it.  Call between mutations (never mid-operation); with ``sync="batch"``
    the offset may run ahead of the fsynced log tail — recovery then
    prefers the (durable, consistent) snapshot.
    """
    return wal.write_snapshot(snapshot_state(index, wal.log_offset))


# -- session state -----------------------------------------------------------------

def canonical_pair_keys(index, keys: np.ndarray) -> np.ndarray:
    """The canonical packed keys of pairs given by raw packed keys.

    The result is computed over canonical node ids, so it is invariant under
    compaction and recovery — the stable identity per-pair session state is
    serialized under.
    """
    canonical = index.canonical_node_ids()
    left = canonical[keys >> np.int64(32)]
    right = canonical[keys & np.int64(MAX_NODE_ID - 1)]
    return pack_pair_keys(np.minimum(left, right), np.maximum(left, right))


def split_pair_keys(keys: np.ndarray, num_nodes: int) -> Dict[str, np.ndarray]:
    """Ascending canonical pair keys as the pair count of every left node
    plus the right node ids (node ids are below 2^32: ``uint32``)."""
    return {
        "left_counts": np.bincount(keys >> np.int64(32), minlength=num_nodes),
        "right": (keys & np.int64(MAX_NODE_ID - 1)).astype(np.uint32),
    }


def joined_pair_keys(split: Dict[str, np.ndarray]) -> np.ndarray:
    """The ascending pair keys :func:`split_pair_keys` split (``ValueError``
    when they do not ascend)."""
    counts = np.asarray(split["left_counts"], dtype=np.int64)
    right = np.asarray(split["right"], dtype=np.int64)
    if counts.ndim != 1 or (counts < 0).any() or counts.sum() != right.size:
        raise ValueError("the snapshot's pair keys do not fit their counts")
    left = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    keys = pack_pair_keys(left, right)
    if (np.diff(keys) <= 0).any():
        raise ValueError("the snapshot's pair keys do not ascend")
    return keys


def session_snapshot_state(session) -> Dict[str, Any]:
    """The full durable state of a :class:`MatchingSession`.

    Index state plus the frozen model, the batch pruning algorithm, the
    online policy (name + node-id-independent state) and the insert-time
    probabilities keyed by canonical pair key (stored sorted by key, which
    is exactly the store a recovered session starts from).

    Raises
    ------
    ValueError
        When the model, pruning algorithm, online policy or blocking method
        is an object a snapshot cannot restore by name.
    """
    index = session.index
    online = session.online
    if ONLINE_POLICIES.get(online.name) is not type(online):
        raise ValueError(
            f"cannot checkpoint online policy {type(online).__qualname__}: a "
            f"snapshot restores {sorted(ONLINE_POLICIES)} by name only"
        )
    raw, probabilities = session.insert_time_probabilities()
    keys = canonical_pair_keys(index, raw)
    order = np.argsort(keys)
    return snapshot_state(
        index,
        session.wal.log_offset,
        {
            "model": export_model(session.model),
            "pruning": export_pruning(session.pruning),
            "policy": online.name,
            "policy_state": online.export_state(
                lambda raw_keys: canonical_pair_keys(index, raw_keys)
            ),
            "pair_keys": split_pair_keys(keys[order], index.num_entities),
            "probabilities": probabilities[order],
            "top_k": session._top_k,
            "snapshot_every": session._snapshot_every,
        },
    )
