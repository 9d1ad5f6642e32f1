"""Shard-affine worker processes for the matching service.

Each worker owns one *signature shard* of the daemon's index: a
:class:`ShardReplica` holds a :class:`~repro.incremental.MutableBlockIndex`
restricted to the signatures that hash to its shard
(:func:`repro.incremental.sharded.shard_of_signature`), and keeps it current
by tailing the daemon's write-ahead log directly with a
:class:`WalRecordFollower`.  The WAL **is** the replication transport: the
daemon appends (and flushes) every mutation before publishing its offset,
so a worker told to catch up to an offset can always read exactly the bytes
behind it — replay-to-offset is what makes reads snapshot-consistent.

*When* the log is read: on every write's heels — the router's follower
thread sends ``("follow", offset)`` as soon as a mutation is applied, so the
replay happens while the worker would otherwise sit idle in ``recv()`` — and
again at each ``stats``' pin, for whatever is left.  Both are the same
:meth:`ShardReplica.catch_up`; there is one replay path.  A replica never
rewinds, so whoever sends an offset must have read it with the worker's
handle lock held (:mod:`repro.serve.router`).

Workers are ``multiprocessing`` processes (``fork`` where available) with
their own supervisor (:mod:`repro.serve.supervision`), not a pool.  No read
uses them: the daemon answers ``match`` and ``top_k`` from its own read view
(:class:`repro.serve.router.ReadView`), and a worker reports only small
counters.  A worker is one process: nothing it does starts a helper
interpreter.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from itertools import groupby
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..incremental.index import MutableBlockIndex
from ..incremental.sharded import shard_of_signature
from ..obs import events
from ..persistence.container import StateFormatError, check_state_format
from ..persistence.log import LOG_MAGIC, WalRecord, WriteAheadLog, _decoded_frames
from ..persistence.snapshot import compacted_from_state, key_shards, row_signatures

_logger = events.get_logger(__name__)


class WalFollowError(RuntimeError):
    """The log cannot be followed to the requested offset."""


class WorkerError(RuntimeError):
    """A shard worker failed while serving a command.

    ``handle`` is the :class:`ShardWorkerHandle` that failed, when one did.
    """

    def __init__(self, message: str, handle: Optional["ShardWorkerHandle"] = None):
        super().__init__(message)
        self.handle = handle


class WalRecordFollower:
    """Incremental reader of a live ``wal.log``.

    Tracks a byte position and parses complete frames from it up to a
    target offset.  The target must be a record boundary the writer has
    already flushed — which every offset published by
    :meth:`WriteAheadLog.append_record` is, because the record bytes are
    written and flushed *before* the offset becomes observable.
    """

    def __init__(self, log_path) -> None:
        self.log_path = Path(log_path)
        self._file = None
        #: byte position just past the last record handed out
        self.position = 0
        #: records parsed and handed out (replayed through the replica)
        self.records_delivered = 0
        #: bytes vouched for by snapshots and never parsed (checkpoint
        #: adoption's accounting: skipped + parsed == position - magic)
        self.bytes_skipped = 0

    def _ensure_open(self) -> None:
        if self._file is not None:
            return
        self._file = open(self.log_path, "rb")
        magic = self._file.read(len(LOG_MAGIC))
        if magic != LOG_MAGIC:
            self._file.close()
            self._file = None
            raise WalFollowError(f"{self.log_path} is not a repro write-ahead log")
        self.position = len(LOG_MAGIC)

    def seek_to(self, offset: int) -> None:
        """Skip directly to ``offset`` without parsing the bytes behind it.

        Used when a snapshot vouches for everything before ``offset`` — the
        replica's bootstrap state already reflects those records.
        """
        self._ensure_open()
        if offset < self.position:
            raise WalFollowError(
                f"cannot seek back to {offset} from {self.position}; "
                "replicas never rewind"
            )
        self.bytes_skipped += offset - self.position
        self.position = offset

    def advance_to(self, target: int) -> Iterator[Dict[str, Any]]:
        """Parse every record between the current position and ``target``
        (exclusive of nothing: the range must end exactly on a record
        boundary) and hand them out one at a time.

        The whole range is read and validated here, before anything moves;
        :attr:`position` then advances past a record only once the consumer
        comes back for the next one — i.e. after it has *applied* it — so a
        consumer that raises mid-range leaves the position at its last
        applied record instead of stranding the records behind the target.
        """
        self._ensure_open()
        if target < self.position:
            raise WalFollowError(
                f"pinned offset {target} is behind the replica's position "
                f"{self.position}; replicas never rewind"
            )
        if target == self.position:
            return iter(())
        faults.on_follower_read()
        self._file.seek(self.position)
        data = self._file.read(target - self.position)
        if len(data) != target - self.position:
            raise WalFollowError(
                f"log holds {self.position + len(data)} bytes but offset "
                f"{target} was pinned; the writer publishes offsets only "
                "after flushing, so this log is not the pinning daemon's"
            )
        records, end = _decoded_frames(data, 0, origin=self.position)
        if end != len(data):
            raise WalFollowError(
                f"no complete record at byte {self.position + end}: offset "
                f"{target} is not a record boundary or the record is damaged"
            )
        return self._deliver(records)

    def _deliver(self, records: List[WalRecord]) -> Iterator[Dict[str, Any]]:
        for entry in records:
            yield entry.record
            self.position = entry.end
            self.records_delivered += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class ShardReplica:
    """Shard ``k``'s live index, fed by the write-ahead log.

    Applies every logged operation with its signatures filtered to the
    shard (empty rows still register the entity — the PR 5 contract that
    keeps node ids identical across shards), through the same ``_apply_*``
    entry points recovery replays through.
    """

    def __init__(
        self,
        wal_dir,
        shard: int,
        num_shards: int,
        adopt_floor: Optional[int] = None,
        allow_from_zero: bool = True,
    ) -> None:
        self.wal_dir = Path(wal_dir)
        self.shard = shard
        self.num_shards = num_shards
        self.follower = WalRecordFollower(self.wal_dir / "wal.log")
        self.index: Optional[MutableBlockIndex] = None
        self.bilateral = False
        #: oldest snapshot sequence whose node space matches the live
        #: authority's — snapshots written by *earlier* daemon incarnations
        #: (pre-compaction node spaces) must never be adopted
        self.adopt_floor = adopt_floor
        #: whether a from-byte-zero replay is valid when no snapshot is
        #: adoptable (False for recovered daemons: the log's early records
        #: predate the compaction the authority was rebuilt from)
        self.allow_from_zero = allow_from_zero
        #: sequence number of the snapshot this replica adopted, if any
        self.adopted_sequence: Optional[int] = None

    @property
    def offset(self) -> int:
        """The log offset the replica's state reflects."""
        return self.follower.position

    def _filter(self, signatures: Sequence[str]) -> List[str]:
        """The signatures of one logged operation that route to this shard."""
        return [
            signature
            for signature in signatures
            if shard_of_signature(signature, self.num_shards) == self.shard
        ]

    def catch_up(self, offset: int) -> None:
        """Replay the log through this shard up to exactly ``offset``.

        A cold replica first bootstraps by *adopting* the newest eligible
        checkpoint at or behind ``offset`` and replaying only the tail — the
        O(tail) bootstrap.  A warm replica only replays: the follower keeps
        it at the head of the log.
        """
        if self.index is None:
            self._adopt(target=offset, require=not self.allow_from_zero)
        for record in self.follower.advance_to(offset):
            self.apply(record)

    def prime(self) -> None:
        """Best-effort warm start: adopt the newest eligible checkpoint.

        Called once at worker spawn, before any pinned offset arrives, so
        the first command only replays the tail past the snapshot.  Offsets
        pinned *before* this worker was spawned never reach it (the router
        swaps workers in only after spawn), so any snapshot existing now is
        at or behind every offset this worker will be asked for.
        """
        if self.index is None:
            self._adopt(target=None)

    def _adopt(self, target: Optional[int], require: bool = False) -> bool:
        """Start a cold replica from the newest eligible checkpoint at or
        behind ``target``.

        Eligible means: sequence at or past ``adopt_floor`` (same node
        space as the live authority), decodes and CRC-validates, holds the
        state format this version reads (a newer container is skipped; a
        format-1 pickle is refused by name), carries a slot layout, offset
        within ``target`` (when given) and not behind the replica (replicas
        never rewind).  Returns whether a snapshot was adopted; with
        ``require`` an empty result is an error rather than an implicit
        from-zero replay.
        """
        wal = WriteAheadLog(self.wal_dir)
        for path in reversed(wal.snapshot_paths()):
            sequence = wal._snapshot_sequence(path)
            if self.adopt_floor is not None and sequence < self.adopt_floor:
                break
            state = wal.load_snapshot(path)
            if state is None:
                continue
            try:
                check_state_format(state)
            except StateFormatError as error:
                _logger.warning("shard %d skips %s: %s", self.shard, path.name, error)
                continue
            if state.get("slots") is None:
                continue
            offset = int(state["log_offset"])
            if target is not None and offset > target:
                continue
            if offset < self.follower.position:
                break
            self._adopt_state(state)
            self.adopted_sequence = sequence
            events.emit(
                "checkpoint_adoption",
                shard=self.shard,
                sequence=int(sequence),
                snapshot_offset=int(state["log_offset"]),
            )
            return True
        if require:
            raise WalFollowError(
                f"shard {self.shard} has no adoptable snapshot "
                f"(floor {self.adopt_floor}) and from-zero replay is disabled"
            )
        return False

    def _adopt_state(self, state: Dict[str, Any]) -> None:
        """Rebuild the shard from a checkpoint of the live authority.

        A checkpoint describes an authority that kept its original node
        space — tombstoned slots included.  The embedded slot layout (one
        side per raw node slot, -1 for a tombstone; within a side, rows fill
        the slots in order) says which raw node id each live row occupies;
        it is walked in id order, so every later WAL record resolves to the
        same node here as on the authority: every maximal run of one side's
        slots through one ``_apply_bulk`` — its rows' signatures restricted
        to this shard's keys, each key hashed once — every dead slot through
        ``_register_tombstone``.  Reads the index section only.
        """
        slot_sides = np.asarray(state["slots"], dtype=np.int8)
        index_state = compacted_from_state(state["index"])
        self.bilateral = bool(index_state["bilateral"])
        index = MutableBlockIndex(
            bilateral=self.bilateral,
            name=f"{index_state.get('name') or 'serve'}#shard{self.shard}",
        )
        owned = key_shards(index_state["block_keys"], self.num_shards) == self.shard
        rows = row_signatures(index_state, owned)
        entity_ids = index_state["entity_ids"]
        first = int(index_state["side_counts"][0])
        if (
            ((slot_sides < -1) | (slot_sides > 1)).any()
            or int(np.count_nonzero(slot_sides == 0)) != first
            or int(np.count_nonzero(slot_sides >= 0)) != len(entity_ids)
        ):
            raise WalFollowError("the snapshot's slot layout does not fit its rows")
        # the next row of each side
        cursor = {0: 0, 1: first}
        for side, run in groupby(slot_sides.tolist()):
            width = len(list(run))
            if side < 0:
                for _ in range(width):
                    index._register_tombstone()
                continue
            start = cursor[side]
            cursor[side] = start + width
            index._apply_bulk(
                list(zip(entity_ids[start : start + width], rows[start : start + width])),
                side,
            )
        self.index = index
        self.follower.seek_to(int(state["log_offset"]))

    def apply(self, record: Dict[str, Any]) -> None:
        """Apply one logical WAL record, shard-filtered (checked against its
        table by the log's decoder)."""
        op = record["op"]
        if op == "meta":
            self.bilateral = record["bilateral"]
            self.index = MutableBlockIndex(
                bilateral=self.bilateral, name=f"{record['name']}#shard{self.shard}"
            )
            return
        if self.index is None:
            raise WalFollowError("the log carries operations before its meta record")
        if op == "add":
            self.index._apply_insert(
                record["id"], record["side"], self._filter(record["sig"])
            )
        elif op == "bulk":
            self.index._apply_bulk(
                [
                    (entity_id, self._filter(signatures))
                    for entity_id, signatures in record["entities"]
                ],
                record["side"],
            )
        elif op == "remove":
            self.index.remove_entity(record["id"], side=record["side"])
        elif op == "update":
            self.index._apply_update(
                record["id"], record["side"], self._filter(record["sig"])
            )
        faults.on_record_applied()

    def shard_stats(self) -> Dict[str, Any]:
        """Small per-shard counters for the ``stats`` endpoint."""
        index = self.index
        accounting = {
            "records_replayed": self.follower.records_delivered,
            "bytes_skipped": self.follower.bytes_skipped,
            "adopted_snapshot": self.adopted_sequence,
        }
        if index is None:
            return {"shard": self.shard, "offset": self.offset, "blocks": 0,
                    "spawning_blocks": 0, "pairs": 0, "entities": 0,
                    "slots": 0, **accounting}
        return {
            "shard": self.shard,
            "offset": self.offset,
            "blocks": index.num_blocks,
            "spawning_blocks": index.num_nonempty_blocks,
            "pairs": index.num_pairs,
            "entities": index.num_entities,
            "slots": index.num_slots,
            **accounting,
        }

    def close(self) -> None:
        self.follower.close()


def shard_worker_main(
    connection,
    wal_dir: str,
    shard: int,
    num_shards: int,
    adopt_floor: Optional[int] = None,
    allow_from_zero: bool = True,
) -> None:
    """A shard worker's process body: serve commands until told to stop.

    Commands arrive as tuples on the pipe:

    * ``("ping",)`` — liveness check;
    * ``("stats", offset)`` — catch up and return small counters;
    * ``("follow", offset)`` — catch up to *at least* ``offset`` and
      acknowledge with the replica's position: the replay a ``stats`` would
      otherwise do, sent on every write's heels by the router's follower;
    * ``("stop",)`` — clean up and exit.

    Every reply is ``("ok", payload)`` or ``("error", type, message, trace)``;
    a failed command never kills the worker loop.
    """
    faults.set_scope(shard)
    events.set_role(f"shard{shard}")
    replica = ShardReplica(
        wal_dir,
        shard,
        num_shards,
        adopt_floor=adopt_floor,
        allow_from_zero=allow_from_zero,
    )
    events.emit("worker_spawn", shard=shard)
    try:
        # warm start is best-effort: a failed adoption is retried (or
        # surfaced) on the first real catch_up, never fatal at spawn
        replica.prime()
    except Exception:  # noqa: BLE001 - see above
        _logger.warning(
            "shard %d warm start failed; retrying on first command",
            shard,
            exc_info=True,
        )
    try:
        while True:
            try:
                command = connection.recv()
            except (EOFError, OSError):
                break
            name = command[0]
            try:
                if name == "ping":
                    if faults.on_heartbeat():
                        continue  # injected wedge: swallow the ping
                    connection.send(("ok", {"shard": shard, "offset": replica.offset}))
                elif name == "stats":
                    _, offset = command
                    replica.catch_up(int(offset))
                    connection.send(("ok", replica.shard_stats()))
                elif name == "follow":
                    _, offset = command
                    # "be at least there": a worker primed from a checkpoint
                    # newer than a follow queued while it booted is past it
                    if int(offset) > replica.offset:
                        replica.catch_up(int(offset))
                    connection.send(("ok", {"shard": shard, "offset": replica.offset}))
                elif name == "stop":
                    connection.send(("ok", None))
                    break
                else:
                    connection.send(
                        ("error", "protocol", f"unknown worker command {name!r}", "")
                    )
            except Exception as error:  # noqa: BLE001 - forwarded to the parent
                events.emit(
                    "worker_command_error",
                    shard=shard,
                    command=str(name),
                    error=type(error).__name__,
                    message=str(error),
                )
                connection.send(
                    (
                        "error",
                        type(error).__name__,
                        str(error),
                        traceback.format_exc(),
                    )
                )
    finally:
        replica.close()
        try:
            connection.close()
        except OSError:
            pass


def _preferred_start_method() -> str:
    """``fork`` where available (zero-copy inherited state, fast startup);
    ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardWorkerHandle:
    """Parent-side handle on one long-lived shard worker process.

    The handle carries the supervision surface: a per-handle lock (held
    around every request, try-acquired by the supervisor to probe idle
    workers), ``busy_since`` (when the current request started, for hang
    detection on busy workers), ``spawned_at`` (so freshly spawned workers
    get a bootstrap grace period), :meth:`ping_within` and :meth:`kill`.
    A handle whose heartbeat times out must be killed, never reused — its
    eventual late reply would desynchronize the pipe.
    """

    def __init__(
        self,
        wal_dir,
        shard: int,
        num_shards: int,
        adopt_floor: Optional[int] = None,
        allow_from_zero: bool = True,
    ) -> None:
        self.shard = shard
        self.lock = threading.Lock()
        #: monotonic time the in-flight request started, ``None`` when idle
        self.busy_since: Optional[float] = None
        self.spawned_at = time.monotonic()
        context = multiprocessing.get_context(_preferred_start_method())
        self._connection, child = context.Pipe(duplex=True)
        self._process = context.Process(
            target=shard_worker_main,
            args=(
                child,
                str(wal_dir),
                shard,
                num_shards,
                adopt_floor,
                allow_from_zero,
            ),
            name=f"repro-serve-shard-{shard}",
            daemon=True,
        )
        self._process.start()
        child.close()

    # -- dispatch (send and collect split so the router can fan out) -------------
    def send(self, command: Tuple) -> None:
        try:
            self._connection.send(command)
        except (OSError, BrokenPipeError, ValueError) as error:
            raise WorkerError(
                f"shard worker {self.shard} is unreachable: {error}", self
            ) from None

    def collect(self) -> Any:
        try:
            reply = self._connection.recv()
        except (EOFError, OSError) as error:
            raise WorkerError(
                f"shard worker {self.shard} died mid-request: {error}", self
            ) from None
        if reply[0] == "ok":
            return reply[1]
        _, error_type, message, trace = reply
        raise WorkerError(
            f"shard worker {self.shard} failed: {error_type}: {message}\n{trace}", self
        )

    def request(self, command: Tuple) -> Any:
        with self.lock:
            self.busy_since = time.monotonic()
            try:
                self.send(command)
                return self.collect()
            finally:
                self.busy_since = None

    def ping_within(self, timeout: float) -> bool:
        """Heartbeat: send a ping and wait up to ``timeout`` for the reply.

        Caller must hold :attr:`lock`.  A ``False`` return means the worker
        is dead or wedged — and the pipe may now hold a late reply, so the
        worker MUST be killed and replaced, never pinged again.
        """
        try:
            self._connection.send(("ping",))
            if not self._connection.poll(timeout):
                return False
            reply = self._connection.recv()
        except (EOFError, OSError, BrokenPipeError, ValueError):
            return False
        return bool(reply) and reply[0] == "ok"

    def kill(self, timeout: float = 5.0) -> None:
        """SIGKILL the worker and reap it; safe on an already-dead process."""
        try:
            self._process.kill()
        except (OSError, ValueError):
            pass
        self._process.join(timeout)
        try:
            self._connection.close()
        except OSError:
            pass

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it does not."""
        if self._process.is_alive():
            try:
                self._connection.send(("stop",))
                self._connection.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - unclean fallback
            self._process.terminate()
            self._process.join(timeout)
        self._connection.close()

    @property
    def alive(self) -> bool:
        return self._process.is_alive()
