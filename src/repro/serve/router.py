"""The daemon's read view, its answers, and the shard fleet that follows the log.

**Reads.**  A ``match`` or ``top_k`` answers from one resident
:class:`~repro.incremental.IndexState`, the :class:`ReadView`, which the
daemon advances from its own authority index.  At the start of every read
the mutation thread — where every write is serialised — runs the
authority's :meth:`~repro.incremental.MutableBlockIndex.export_delta` (the
first time :meth:`~repro.incremental.IndexState.export_state` plus
:meth:`~repro.incremental.MutableBlockIndex.enable_delta_tracking`), applies
it to the view with :meth:`~repro.incremental.IndexState.apply_delta`,
resolves ``top_k``'s node and pins the WAL offset.  The exact read then runs
on the daemon's one read thread over the view, so a write never waits for
it and no view moves under a read (PesaDB's reader boundary, SNIPPET 1).
The answer is :func:`repro.incremental.session.exact_answer`, the very
function :meth:`MatchingSession.retained` runs, so a read computes
**exactly** what an offline :class:`~repro.incremental.MatchingSession`
computes after replaying the same log prefix.  A ``top_k`` is a selection
over that read, and reads at the same view state share one
(:class:`SharedRead`).

Entity ids are resolved through the authority index: node ids are
append-only there (slots are tombstoned, never reused), so its live
``entity_id(node)`` is correct for any node of any view at or behind the
current offset.

**The fleet.**  K shard worker processes (:mod:`repro.serve.workers`)
replicate the same WAL, one signature shard each.  No read uses them: the
:class:`ShardRouter` keeps them at the head of the log, answers ``stats``
from them, and hands them to the supervisor.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.pruning import SupervisedPruningAlgorithm, strength_order
from ..obs import events
from ..obs.trace import hook_span
from ..incremental.delta import DeltaFeatureGenerator
from ..incremental.index import MutableBlockIndex
from ..incremental.session import exact_answer, scored_read
from ..incremental.state import IndexState, LiveCandidates
from ..pairs import pack_pair_keys
from .workers import ShardWorkerHandle, WorkerError


class ReadView:
    """One resident :class:`~repro.incremental.IndexState` that follows the
    authority index ``index`` read by read.

    :meth:`advance` must run where the authority's mutations serialise: the
    arrays an export hands over are zero-copy views into the index, valid
    until its next mutation.  A delta that does not apply leaves the view
    behind the authority's delta tracker, which the export has already
    rebased, so the next :meth:`advance` rebuilds the view whole.
    """

    def __init__(self, index: MutableBlockIndex) -> None:
        self._index = index
        #: the view: ``None`` until the first read
        self.state: Optional[IndexState] = None

    def advance(self) -> IndexState:
        """Bring the view to the authority's current state and return it."""
        index = self._index
        ship = None if self.state is None else index.export_delta(self.state.epoch)
        if ship is None:
            ship = index.export_state()
            self.state = IndexState()
            self.state.apply_full(ship["arrays"], ship["meta"])
            index.enable_delta_tracking()
        else:
            self.state.apply_delta(ship["arrays"], ship["meta"])
        return self.state


# -- query evaluation over a view ------------------------------------------------

#: one exact read: the live candidates (raw node ids, batch candidate
#: order), their probabilities and the retained mask — what
#: :func:`~repro.incremental.session.exact_answer` returns
ExactRead = Tuple[LiveCandidates, np.ndarray, np.ndarray]


def match_answer(
    view: IndexState,
    entity_id: Callable[[int], str],
    model,
    pruning: SupervisedPruningAlgorithm,
    read: Optional[ExactRead] = None,
) -> Dict[str, Any]:
    """The exact retained set of ``view``.

    Formats ``read``, the view's exact read, or — when none is given — runs
    :func:`~repro.incremental.session.exact_answer` (the function behind
    :meth:`MatchingSession.retained`) against the view instead of the live
    index.  ``entity_id`` names a node.  The retained list is sorted by
    entity-id pair, so the response is byte-identical however the view was
    built.
    """
    if read is None:
        read = exact_answer(DeltaFeatureGenerator(view, model.feature_set), model, pruning)
    candidates, probabilities, mask = read
    retained = sorted(
        [*ids, probability]
        for ids, probability in zip(
            candidates.id_pairs(mask, entity_id), probabilities[mask].tolist()
        )
    )
    return {"num_candidates": len(candidates), "retained": retained}


def top_k_answer(
    view: IndexState,
    entity_id: Callable[[int], str],
    model,
    node: int,
    k: int,
    read: Optional[ExactRead] = None,
) -> List[Dict[str, Any]]:
    """The ``k`` (≥ 0) most likely matches of one entity in ``view``.

    A selection over ``read``, the view's exact read — or, when none is
    given, its scored pairs (:func:`~repro.incremental.session.scored_read`):
    the node's pairs, ordered by probability descending and packed candidate
    key of the raw node ids ascending, the first ``k`` — so every
    probability reported here is the one ``match`` gives that pair at the
    same offset.
    """
    if read is None:
        read = scored_read(DeltaFeatureGenerator(view, model.feature_set), model)
    candidates, probabilities, _ = read
    with hook_span("select"):
        mine = np.flatnonzero((candidates.left == node) | (candidates.right == node))
        left, right = candidates.left[mine], candidates.right[mine]
        order = strength_order(probabilities[mine], pack_pair_keys(left, right))[:k]
        counterparts = np.where(left == node, right, left)[order]
        # the other side of a bilateral index, unless filtering stranded a block
        sides = view.sides()[counterparts].tolist()
        return [
            {"entity_id": entity_id(counterpart), "side": side, "probability": probability}
            for counterpart, side, probability in zip(
                counterparts.tolist(), sides, probabilities[mine][order].tolist()
            )
        ]


class SharedRead:
    """The last exact read, and the view state it was computed at.

    A view state at the same ``epoch`` reads the same index: every logged
    mutation bumps the authority's epoch, an advance — an empty one included
    — sets the view's, and a rebuilt view is a new state.  The state itself
    is held, so no ``id`` is reused while the read is.  Nothing is reused
    once the state has moved: a read at any other state releases the held
    one *before* computing its own, so at most one read is held.

    One reader at a time: the daemon's read thread.
    """

    def __init__(self) -> None:
        self._state: Optional[IndexState] = None
        self._epoch = -1
        self._read: Optional[ExactRead] = None

    def held(self, state: IndexState) -> Optional[ExactRead]:
        """The held read if ``state`` is the state it was computed at;
        otherwise ``None``, and the held read is released."""
        if state is self._state and state.epoch == self._epoch:
            return self._read
        self._state, self._read = None, None
        return None

    def compute(self, state: IndexState, model, pruning) -> ExactRead:
        """The exact read at ``state``, held for the reads that follow it."""
        read = exact_answer(DeltaFeatureGenerator(state, model.feature_set), model, pruning)
        self._state, self._epoch, self._read = state, state.epoch, read
        return read


class ShardRouter:
    """The daemon's fleet of shard workers.

    The fleet is mutable: :meth:`respawn` replaces one shard's worker with
    a freshly spawned one (checkpoint adoption makes the replacement cheap).
    Handle swaps happen under the router lock; request traffic holds each
    handle's own lock, so a swapped-out worker is never written to
    mid-request.

    Replication is eager: a router that was handed an ``offset_source`` (the
    daemon's WAL head) runs one **follower thread** between :meth:`start`
    and :meth:`stop`.  :meth:`notify_write` wakes it after every applied
    mutation and it fans ``("follow", offset)`` out to the fleet.  Every
    command that carries an offset — ``stats`` and ``follow`` — takes it
    from that one source through :meth:`_pin`, which says why.  A router
    without an offset source (benches) pins nothing and never follows; one
    that has it but is never notified of a write (bare tests) pins its
    ``stats`` and its follower sleeps.
    """

    def __init__(
        self,
        wal_dir,
        num_shards: int,
        adopt_floor: Optional[int] = None,
        allow_from_zero: bool = True,
        metrics=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.wal_dir = wal_dir
        self.num_shards = num_shards
        self._adopt_floor = adopt_floor
        self._allow_from_zero = allow_from_zero
        self.metrics = metrics
        self._lock = threading.Lock()
        self._handles: List[ShardWorkerHandle] = []
        #: the daemon's mutation serial counter, for replica-lag gauges
        #: (assigned after construction; ``None`` disables lag tracking)
        self.serial_source: Optional[Callable[[], int]] = None
        #: the WAL head: what every ``stats`` is pinned at and the follower
        #: thread keeps the fleet at (assigned after construction; ``None``
        #: refuses to pin and starts no thread)
        self.offset_source: Optional[Callable[[], int]] = None
        #: the supervisor's ``kick``, called when a follow fails (assigned
        #: once a supervisor exists; the router never imports supervision)
        self.kick_supervisor: Optional[Callable[[], None]] = None
        #: per-shard mutation serial the worker is known to have replayed:
        #: advanced by every follow ack
        self.followed_serials: Dict[int, int] = {}
        self._follower: Optional[threading.Thread] = None
        self._follow_wake = threading.Event()
        self._follow_stopping = False

    def _spawn(self, shard: int) -> ShardWorkerHandle:
        return ShardWorkerHandle(
            self.wal_dir,
            shard,
            self.num_shards,
            adopt_floor=self._adopt_floor,
            allow_from_zero=self._allow_from_zero,
        )

    def start(self) -> "ShardRouter":
        """Spawn one worker per shard and, given an ``offset_source``, the
        follower thread (idempotent)."""
        with self._lock:
            if not self._handles:
                self._handles = [
                    self._spawn(shard) for shard in range(self.num_shards)
                ]
            if self.offset_source is not None and self._follower is None:
                self._follow_stopping = False
                self._follower = threading.Thread(
                    target=self._follow_loop, name="repro-serve-follow", daemon=True
                )
                self._follower.start()
        return self

    def handles(self) -> List[ShardWorkerHandle]:
        """A stable copy of the current fleet (handles may be swapped out
        concurrently — holders must tolerate a dead handle)."""
        with self._lock:
            return list(self._handles)

    def handle(self, shard: int) -> ShardWorkerHandle:
        with self._lock:
            if not self._handles:
                raise WorkerError("the shard router is not running")
            return self._handles[shard]

    def respawn(
        self, shard: int, expected: Optional[ShardWorkerHandle] = None
    ) -> Optional[ShardWorkerHandle]:
        """Replace ``shard``'s worker with a freshly spawned one.

        Spawns the replacement *first*, swaps it in under the router lock
        (guarded by ``expected`` identity so two detectors of the same
        failure produce one respawn), then SIGKILLs the old process — the
        kill also unblocks anyone waiting on the old pipe with a
        :class:`WorkerError`.  Returns the replacement, or ``None`` when
        the swap did not happen (router stopped, or ``expected`` was
        already replaced by someone else).
        """
        fresh = self._spawn(shard)
        with self._lock:
            swapped = bool(self._handles) and (
                expected is None or self._handles[shard] is expected
            )
            if swapped:
                current = self._handles[shard]
                self._handles[shard] = fresh
                # whatever the old worker had replayed dies with it: the
                # replacement lags until it is followed
                self.followed_serials.pop(shard, None)
        if not swapped:
            fresh.kill()
            return None
        current.kill()
        return fresh

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @contextmanager
    def _held_fleet(self) -> Iterator[List[ShardWorkerHandle]]:
        """The current fleet with every handle's lock held (``busy_since``
        set, so the supervisor's hang detection covers whatever runs inside)."""
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            handle.lock.acquire()
        try:
            now = time.monotonic()
            for handle in handles:
                handle.busy_since = now
            yield handles
        finally:
            for handle in handles:
                handle.busy_since = None
                handle.lock.release()

    def _pin(self) -> Tuple[int, Optional[int]]:
        """The offset a worker command will carry — the head of
        ``offset_source`` — and the mutation serial it covers.  Call it
        under :meth:`_held_fleet`, and nowhere else.

        A replica never rewinds, so an offset read *before* the locks could
        reach a worker the follower has meanwhile taken past it.  Read under
        them, and from the one source ``stats`` and follows share,
        every earlier command to these workers carried an offset ≤ this one
        and every later one will carry one ≥ it.  The serial is read first:
        each mutation it counts was journaled before it was counted.
        """
        if self.offset_source is None:
            raise WorkerError("the shard router was given no offset source to pin")
        serial = self.serial_source() if self.serial_source is not None else None
        return int(self.offset_source()), serial

    def _mark_followed(self, serial: Optional[int]) -> None:
        """Every shard acknowledged a command pinned at ``serial``.

        A gauge's bookkeeping, not a guard: a shard respawned while that
        command was in flight is marked too, and reads caught up until the
        next write's follow corrects it."""
        if serial is None:
            return
        with self._lock:
            for shard in range(self.num_shards):
                if serial > self.followed_serials.get(shard, -1):
                    self.followed_serials[shard] = serial

    def _fan_out(self, command) -> List[Any]:
        """Send a command to every worker first, then collect — workers
        compute concurrently.

        ``command`` is one tuple broadcast to the whole fleet, or a callable
        returning one — evaluated only once every handle's lock is held,
        which is where a command that carries a WAL offset must take it
        (:meth:`_pin`).

        Every handle's lock is held for the duration (``busy_since`` set for
        the supervisor's hang detection).  On a partial failure the workers
        already sent to still owe replies; they are drained so their pipes
        stay in sync — a drain blocked on a wedged worker resolves when the
        supervisor kills it (EOF → :class:`WorkerError`).
        """
        with self._held_fleet() as handles:
            if callable(command):
                command = command()
            owed: List[ShardWorkerHandle] = []
            try:
                for handle in handles:
                    handle.send(command)
                    owed.append(handle)
                results = []
                while owed:
                    handle = owed.pop(0)
                    results.append(handle.collect())
                return results
            except Exception:
                for handle in owed:
                    try:
                        handle.collect()
                    except Exception:  # noqa: BLE001 - resync is best-effort
                        pass
                raise

    # -- eager replication ----------------------------------------------------------
    def notify_write(self) -> None:
        """A mutation was applied: wake the follower.  Never blocks, sends
        nothing; wake-ups that pile up coalesce into one follow."""
        self._follow_wake.set()

    def _follow_loop(self) -> None:
        while True:
            self._follow_wake.wait()
            self._follow_wake.clear()
            if self._follow_stopping:
                return
            try:
                self._follow()
            except Exception:  # noqa: BLE001 - the next write's follow retries
                pass

    def _follow(self) -> None:
        """Bring the fleet to the head of the log: one ``follow`` fan-out.

        The worker serves it with the very ``catch_up`` a ``stats`` calls,
        so the ``stats`` that comes next finds nothing left to replay.  A
        follow that fails may have left its worker half-way through a
        record; that worker must never answer again, so it is killed here
        and the supervisor kicked — which finds it dead and replaces it
        through the one respawn path (counted, journaled); until then its
        shard's ``stats`` entry is an ``error``.
        """
        offset = serial = None

        def command() -> Tuple:
            nonlocal offset, serial
            offset, serial = self._pin()
            return ("follow", offset)

        started = time.perf_counter()
        try:
            self._fan_out(command)
        except Exception as error:  # noqa: BLE001 - the follower must not die
            failed = getattr(error, "handle", None)
            events.emit(
                "replica_follow_error",
                shard=failed.shard if failed is not None else None,
                offset=offset,
                cause=f"{type(error).__name__}: {error}"[:200],
            )
            if failed is not None:
                failed.kill()
            if self.kick_supervisor is not None:
                self.kick_supervisor()
            ok = False
        else:
            ok = True
        # counted before the lag gauge can read 0: whoever sees the fleet
        # caught up also sees the follow that did it
        if self.metrics is not None:
            self.metrics.record("replica_follow", time.perf_counter() - started, ok)
        if ok:
            self._mark_followed(serial)

    def stop_following(self) -> None:
        """Stop and join the follower thread (idempotent).

        Shutdown calls this while the supervisor still runs — a follow in
        flight on a wedged worker ends when that worker is killed — and
        before the fleet is torn down, so no follow ever meets a closed pipe.
        """
        self._follow_stopping = True
        self._follow_wake.set()
        with self._lock:
            follower, self._follower = self._follower, None
        if follower is not None:
            follower.join()

    def shard_stats(self) -> Tuple[int, List[Dict[str, Any]]]:
        """The offset pinned (under the handle locks, like a follow's) and the
        per-shard counters at it — tolerant: a dead or rebuilding worker
        reports an ``error`` entry instead of failing the call."""
        stats: List[Dict[str, Any]] = []
        with self._held_fleet() as handles:
            offset, _ = self._pin()
            for shard in range(self.num_shards):
                try:
                    if not handles:
                        raise WorkerError("the shard router is not running")
                    handles[shard].send(("stats", offset))
                    stats.append(handles[shard].collect())
                except Exception as error:  # noqa: BLE001 - per-shard tolerance
                    stats.append({"shard": shard, "error": str(error)})
        return offset, stats

    def stop(self) -> None:
        """Stop the follower, then every worker (idempotent)."""
        self.stop_following()
        with self._lock:
            handles, self._handles = self._handles, []
        for handle in handles:
            handle.stop()
