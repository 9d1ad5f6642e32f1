"""Crash recovery: latest complete session snapshot + logical log tail replay.

``recover_session(path)`` restores the durable state a WAL directory holds,
with the hard guarantee that recovery from a log truncated at **any** byte
offset behind the session's first snapshot yields a session whose canonical
view (canonical candidates, snapshot blocks, aggregates) and exact answer
equal the uninterrupted run's after the operations whose records survived —
torn tail records are detected by the length+CRC framing and dropped.

The driver:

1. loads the newest decodable snapshot — refusing one written in another
   state format (:func:`check_state_format`), a format-1 pickle before any
   byte of it is unpickled, and a directory without a session snapshot —
   and *adopts* the compacted index state it holds
   (:func:`build_index_from_state`: arrays in, exact recounts, the
   dictionaries rebuilt);
2. scans the log from the snapshot's embedded offset to its last complete
   record (:meth:`WriteAheadLog.scan`): the tail it replays, not the history
   the snapshot vouches for — and, from the same bytes, the log's first
   record, which must be its ``meta`` record (refused by name otherwise; a
   log torn inside it recovers as before).  A record its table refuses
   stops recovery with ``StateFormatError`` before any index is built;
3. replays the log records behind the snapshot's embedded offset through
   the session — signatures come from the records, nothing is
   re-tokenized — re-scoring each with the frozen model;
4. physically truncates the torn tail and re-attaches the log so new
   mutations append behind the recovered state.

This is the one place an index is compacted in a running program: a
session snapshot stores the index without its tombstones
(:meth:`~repro.incremental.MutableBlockIndex.compacted_state`) and recovery
adopts it, so a recovered session's raw node ids are the canonical ids.

If a snapshot covers more of the log than survived (possible under
``sync="batch"``, where snapshots fsync but the log tail may not have),
the snapshot wins: it is a durable, consistent state strictly newer than
the log prefix, and the replay loop naturally finds no records behind its
offset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..obs import events
from .container import check_state_format
from .log import WriteAheadLog
from .snapshot import (
    build_index_from_state,
    check_blocking,
    joined_pair_keys,
    restore_pruning,
)


def recover_session(path: Union[str, Path], sync: str = "always"):
    """Recover a :class:`MatchingSession` with an identical online threshold.

    Loads the newest session snapshot (a session opened with ``wal_path=``
    writes one immediately, so there is always a frozen model to restore),
    adopts the compacted index it holds, restores the frozen model, the
    pruning algorithm, the insert-time probabilities and the online WEP
    aggregate, replays the log tail *through the session* (re-scoring each
    replayed mutation with the frozen model — deterministic), then truncates
    any torn tail and resumes journaling.

    A snapshot written by an older tree may also name its online ``policy``,
    a ``top_k`` budget and its index's blocking method: ``top_k`` is
    ignored, and a ``policy`` other than ``"wep"`` or a blocking method other
    than Token Blocking with its defaults (:func:`check_blocking`) is refused
    by name before any state is built.
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
            "no session snapshot in the WAL directory: only a log written by a "
            "MatchingSession (wal_path=) can be recovered"
        )
    stored = snapshot["session"]
    policy = stored.get("policy", OnlineWEP.name)
    if policy != OnlineWEP.name:
        raise ValueError(
            f"the snapshot's session runs online policy {policy!r}, which this "
            f"version does not restore; only {OnlineWEP.name!r} is"
        )
    check_blocking(snapshot["index"])
    start = int(snapshot["log_offset"])
    scan = wal.scan(start)
    if scan.first is not None and scan.first["op"] != "meta":
        raise ValueError(
            f"the log opens with a {scan.first['op']!r} record, not its 'meta' record"
        )
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
    session._ops_since_snapshot = 0
    return session
