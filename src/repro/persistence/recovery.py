"""Crash recovery: latest complete snapshot + logical log tail replay.

``recover_index(path)`` / ``recover_session(path)`` restore the durable
state a WAL directory holds, with the hard guarantee that recovery from a
log truncated at **any** byte offset yields an index whose canonical view
(canonical candidates, snapshot blocks, aggregates) equals the
uninterrupted run's state after the operations whose records survived —
torn tail records are detected by the length+CRC framing and dropped.

The driver:

1. loads the newest decodable snapshot, if any — refusing one written in
   another state format (:func:`check_state_format`), a format-1 pickle
   before any byte of it is unpickled — and *adopts* the compacted index
   state it holds (:func:`build_index_from_state`: arrays in, exact recounts,
   the dictionaries rebuilt); without one, the log's ``meta`` record (format
   checked the same way) names the index to replay into;
2. scans the log from the snapshot's embedded offset to its last complete
   record (:meth:`WriteAheadLog.scan`): the tail it replays, not the history
   the snapshot vouches for;
3. replays the log records behind the snapshot's embedded offset through
   the index's internal ``_apply_*`` entry points — signatures come from
   the records, nothing is re-tokenized;
4. when resuming, physically truncates the torn tail and re-attaches the
   log so new mutations append behind the recovered state.

If a snapshot covers more of the log than survived (possible under
``sync="batch"``, where snapshots fsync but the log tail may not have),
the snapshot wins: it is a durable, consistent state strictly newer than
the log prefix, and the replay loop naturally finds no records behind its
offset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..obs import events
from .container import check_state_format
from .log import WalScan, WriteAheadLog
from .snapshot import (
    build_index_from_state,
    construct_index,
    joined_pair_keys,
    restore_pruning,
)


def apply_logged_record(index, record: Dict[str, Any]) -> None:
    """Apply one logical WAL record to a :class:`MutableBlockIndex`.

    Insert-type records carry the signatures extracted when the operation
    was first performed; replay feeds them to the index's ``_apply_*``
    entry points directly, so no blocking method runs during recovery.
    """
    op = record["op"]
    if op == "meta":
        return
    if op == "add":
        index._apply_insert(record["id"], record["side"], record["sig"])
    elif op == "bulk":
        index._apply_bulk(
            [(entity_id, signatures) for entity_id, signatures in record["entities"]],
            record["side"],
        )
    elif op == "remove":
        index.remove_entity(record["id"], side=record["side"])
    elif op == "update":
        index._apply_update(record["id"], record["side"], record["sig"])
    else:
        raise ValueError(f"unknown WAL record op {op!r}")


def _base_state(
    scan: WalScan, snapshot: Optional[Dict[str, Any]], blocking
) -> Tuple[Any, int]:
    """The index to start replay from, and the log offset replay starts at."""
    if snapshot is not None:
        index = build_index_from_state(snapshot["index"], blocking=blocking)
        return index, int(snapshot["log_offset"])
    for entry in scan.records:
        if entry.record.get("op") == "meta":
            check_state_format(entry.record, source="log meta record")
            return construct_index(entry.record, blocking=blocking), entry.end
    raise ValueError(
        "the WAL holds neither a snapshot nor a meta record; nothing to recover"
    )


def recover_index(
    path: Union[str, Path],
    blocking=None,
    resume: bool = False,
    sync: str = "always",
):
    """Recover a :class:`MutableBlockIndex`.

    Parameters
    ----------
    path:
        The WAL directory (``wal.log`` + ``snapshot-*.snap``).
    blocking:
        Optional blocking-method override for the rebuilt index (snapshots
        store the original; recovery from a log with no snapshot defaults
        to token blocking).
    resume:
        When ``True``, truncate any torn tail and re-attach the log so the
        recovered index keeps journaling new mutations.
    sync:
        Sync mode for the re-attached log (``resume=True`` only).
    """
    wal = WriteAheadLog(path, sync=sync)
    if not wal.log_path.exists():
        raise FileNotFoundError(f"no write-ahead log at {wal.log_path}")
    snapshot = wal.latest_snapshot()
    vouched = None
    if snapshot is not None:
        check_state_format(snapshot)
        vouched = int(snapshot["log_offset"])
    scan = wal.scan(vouched)
    index, start = _base_state(scan, snapshot, blocking)
    replayed = 0
    for entry in scan.records:
        if entry.start >= start:
            apply_logged_record(index, entry.record)
            replayed += 1
    events.emit(
        "wal_recovery",
        kind="index",
        snapshot="present" if snapshot is not None else "absent",
        replayed_records=replayed,
        truncated_tail=bool(scan.truncated),
        offset=int(scan.valid_length),
    )
    if resume:
        wal.open(truncate_at=scan.valid_length)
        index.attach_wal(wal)
    return index


def recover_session(path: Union[str, Path], sync: str = "always"):
    """Recover a :class:`MatchingSession` with an identical online threshold.

    Loads the newest session snapshot (a session opened with ``wal_path=``
    writes one immediately, so there is always a frozen model to restore),
    adopts the compacted index it holds, restores the frozen model, the
    pruning algorithm, the insert-time probabilities and the online WEP
    aggregate, replays the log tail *through the session* (re-scoring each
    replayed mutation with the frozen model — deterministic), then truncates
    any torn tail and resumes journaling.

    A snapshot written by an older tree may also name its online ``policy``
    and a ``top_k`` budget: ``top_k`` is ignored, and a ``policy`` other than
    ``"wep"`` is refused by name before any state is built.
    """
    from ..incremental.session import MatchingSession, OnlineWEP, PairProbabilities
    from ..ml.state import restore_model

    wal = WriteAheadLog(path, sync=sync)
    if not wal.log_path.exists():
        raise FileNotFoundError(f"no write-ahead log at {wal.log_path}")
    snapshot = wal.latest_snapshot()
    if snapshot is not None:
        check_state_format(snapshot)
    if snapshot is None or snapshot.get("session") is None:
        raise ValueError(
            "no session snapshot in the WAL directory; this log was written "
            "by a bare index — use recover_index() instead"
        )
    stored = snapshot["session"]
    policy = stored.get("policy", OnlineWEP.name)
    if policy != OnlineWEP.name:
        raise ValueError(
            f"the snapshot's session runs online policy {policy!r}, which this "
            f"version does not restore; only {OnlineWEP.name!r} is"
        )
    start = int(snapshot["log_offset"])
    scan = wal.scan(start)
    index = build_index_from_state(snapshot["index"])
    # the adopted index numbers nodes canonically: the snapshot's sorted
    # canonical keys and probabilities are the session's store as they stand
    keys = joined_pair_keys(stored["pair_keys"])
    probabilities = np.asarray(stored["probabilities"], dtype=np.float64)
    if probabilities.shape != keys.shape:
        raise ValueError("the snapshot's pair probabilities do not fit its pair keys")
    session = MatchingSession._from_parts(
        model=restore_model(stored["model"]),
        index=index,
        pruning=restore_pruning(stored["pruning"]),
        online_state=stored["policy_state"],
        snapshot_every=stored["snapshot_every"],
        probabilities=PairProbabilities(keys, probabilities),
    )
    replayed = 0
    for entry in scan.records:
        if entry.start >= start:
            session._replay_record(entry.record)
            replayed += 1
    events.emit(
        "wal_recovery",
        kind="session",
        snapshot="present",
        replayed_records=replayed,
        truncated_tail=bool(scan.truncated),
        offset=int(scan.valid_length),
    )
    wal.open(truncate_at=scan.valid_length)
    index.attach_wal(wal)
    session.wal = wal
    session._generation = index.generation
    session._ops_since_snapshot = 0
    return session
