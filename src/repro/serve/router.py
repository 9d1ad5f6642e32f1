"""Pinned read views over the shard workers' states: the shipping handshake.

A ``match`` or ``top_k`` query pins a WAL offset — read once every worker's
handle lock is held, the moment the reader *starts reading* — asks every
shard worker for its read state *at exactly that offset*, and reads the K
states as one index through a :class:`~repro.incremental.MergedIndexView`.
Between reads a follower thread keeps the workers at the head of the log
(**follow eagerly, pin late**), so the pin usually finds them caught up.
What a state is (three arrays plus a handful of scalars; no pair list —
the live pairs are derived from the CSR), how a delta advances it and when a
ship is refused live in :mod:`repro.incremental.state`; what makes K shards
mergeable in :mod:`repro.incremental.sharded`; and the answer itself is
:func:`repro.incremental.session.exact_answer`, the very function
:meth:`MatchingSession.retained` runs — so a pinned read computes
**exactly** what an offline :class:`~repro.incremental.MatchingSession`
computes after replaying the same log prefix.  This module is what is left:
who ships what to whom, and when.

Shipping is incremental: the router keeps one **resident**
:class:`~repro.incremental.IndexState` per shard and hands each worker a
``{"lineage", "epoch"}`` handshake describing the state it already holds
(the epoch is the state's own: it is adopted only by a ship that applied
cleanly); the worker replies with a delta (applied to the resident state in
place) or a full state (first contact, respawned worker, checkpoint adoption
or compaction — anything that breaks the lineage).  Either rides the
worker's pipe reply as one array container, decoded with every container
check on (:meth:`~repro.serve.workers.ShardWorkerHandle.materialize`).  Every
shard's ship is applied; a shard whose ship is torn or fails to apply loses
its resident state, so its next read full-ships, while the shards whose
ships applied keep theirs and go on shipping deltas.  Only the cheap merged
view is rebuilt per query.

Entity-id resolution is delegated to a caller-provided function: node ids
are append-only in the authority index (slots are tombstoned, never
reused), so the daemon's live ``entity_id(node)`` is correct for any node
that exists at *any* pinned offset ≤ the current one.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.pruning import SupervisedPruningAlgorithm, strength_order
from ..obs import events
from ..obs.trace import current_trace, hook_span
from ..datamodel.candidates import CandidateSet
from ..incremental.delta import DeltaFeatureGenerator
from ..incremental.session import exact_answer
from ..incremental.sharded import MergedIndexView
from ..incremental.state import IndexState, IndexStateError
from ..pairs import pack_pair_keys
from .workers import ShardWorkerHandle, WorkerError


class _ResidentShard(NamedTuple):
    """One shard's resident state plus the lineage it was shipped under."""

    state: IndexState
    lineage: str


def build_pinned_view(
    states: Sequence[Dict[str, Any]],
    resolve_entity_id: Callable[[int], str],
    name: str = "serve-pinned",
) -> MergedIndexView:
    """Assemble *full* shard states into a read-only merged view.

    The from-scratch assembly (and the oracle the resident delta-maintained
    path is property-tested against): every state must be a ``kind ==
    "full"`` ship, all pinned at the same WAL offset.
    """
    if not states:
        raise ValueError("at least one shard state is required")
    offsets = {int(state["meta"]["offset"]) for state in states}
    if len(offsets) != 1:
        raise ValueError(f"shard states pin different offsets: {sorted(offsets)}")
    shards = []
    for state in states:
        if state.get("kind", state["meta"].get("kind", "full")) != "full":
            raise ValueError("build_pinned_view requires full shard states")
        shard = IndexState()
        shard.apply_full(state["arrays"], state["meta"])
        shards.append(shard)
    return MergedIndexView(shards, resolve_entity_id, name)


# -- query evaluation over a pinned view -----------------------------------------

def match_answer(
    view: MergedIndexView,
    model,
    pruning: SupervisedPruningAlgorithm,
) -> Dict[str, Any]:
    """The exact retained set at the view's pinned offset.

    Runs :func:`~repro.incremental.session.exact_answer` — the function
    behind :meth:`MatchingSession.retained` — against the pinned view
    instead of the live index.  The retained list is sorted by entity-id
    pair, so the response is byte-identical however the pairs were
    distributed over shards.
    """
    candidates, probabilities, mask = exact_answer(
        DeltaFeatureGenerator(view, model.feature_set), model, pruning
    )
    retained = sorted(
        [*ids, probability]
        for ids, probability in zip(
            candidates.id_pairs(mask, view.entity_id), probabilities[mask].tolist()
        )
    )
    return {"num_candidates": len(candidates), "retained": retained}


def top_k_answer(
    view: MergedIndexView, model, node: int, k: int
) -> List[Dict[str, Any]]:
    """The ``k`` most likely matches of one entity at the pinned offset.

    The entity's counterparts in the collection read under the model's block
    cleaning are read off its cleaned CSR rows and only those pairs are
    scored, under the statistics ``match`` scores with — so every
    probability reported here is the one ``match`` gives that pair at the
    same offset.  Ties are broken deterministically by packed candidate key
    of the raw node ids.
    """
    with hook_span("merge-pairs"):
        statistics = view.statistics(model.cleaning)
        counterparts = statistics.counterparts(node)
    if counterparts.size == 0:
        return []
    left, right = np.minimum(counterparts, node), np.maximum(counterparts, node)
    subset = CandidateSet(left, right, view.index_space())
    with hook_span("features"):
        matrix = DeltaFeatureGenerator(view, model.feature_set).generate(subset, statistics)
    with hook_span("score"):
        probabilities = model.score(matrix.values)
    order = strength_order(probabilities, pack_pair_keys(left, right))[: max(0, int(k))]
    # the other side of a bilateral index, unless filtering stranded a block
    sides = view.sides()[counterparts[order]].tolist()
    return [
        {"entity_id": view.entity_id(counterpart), "side": side, "probability": probability}
        for counterpart, side, probability in zip(
            counterparts[order].tolist(), sides, probabilities[order].tolist()
        )
    ]


class ShardRouter:
    """The daemon's fleet of shard workers plus the pinned-view assembly.

    The fleet is mutable: :meth:`respawn` replaces one shard's worker with
    a freshly spawned one (checkpoint adoption makes the replacement cheap)
    while reads keep flowing through the others.  Handle swaps happen under
    the router lock; request traffic holds each handle's own lock, so a
    swapped-out worker is never written to mid-request.

    Reads are delta-shipped: the router keeps one resident
    :class:`~repro.incremental.IndexState` per shard and passes each worker
    the ``{"lineage", "epoch"}`` base it holds, so a warm read ships only
    what changed since the previous one.  A respawn invalidates the shard's
    resident entry; even if an in-flight read resurrects a stale entry the
    replacement worker's fresh lineage token forces the next read to ship
    full state, so the resident state can never silently diverge.

    Replication is eager: a router that was handed an ``offset_source`` (the
    daemon's WAL head) runs one **follower thread** between :meth:`start`
    and :meth:`stop`.  :meth:`notify_write` wakes it after every applied
    mutation and it fans ``("follow", offset)`` out to the fleet, so the
    workers replay a write while they would otherwise idle, not inside the
    next read.  Every command that carries an offset — ``read``, ``stats``,
    ``follow`` — takes it from that one source through :meth:`_pin`, which
    says why.  A router without an offset source (benches) pins nothing and
    never follows; one that has it but is never notified of a write (bare
    tests) pins its reads and its follower sleeps.
    """

    def __init__(
        self,
        wal_dir,
        num_shards: int,
        resolve_entity_id: Callable[[int], str],
        start_method: Optional[str] = None,
        bootstrap=None,
        adopt_floor: Optional[int] = None,
        allow_from_zero: bool = True,
        adopt_min_gap: Optional[int] = None,
        metrics=None,
        delta_shipping: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.wal_dir = wal_dir
        self.num_shards = num_shards
        self._resolve = resolve_entity_id
        self._start_method = start_method
        #: the snapshot the authority was rebuilt from, if it recovered —
        #: replicas bootstrap from the same file to share its node space
        self._bootstrap = bootstrap
        self._adopt_floor = adopt_floor
        self._allow_from_zero = allow_from_zero
        self._adopt_min_gap = adopt_min_gap
        self.metrics = metrics
        self.delta_shipping = bool(delta_shipping)
        self._lock = threading.Lock()
        self._handles: List[ShardWorkerHandle] = []
        #: reads are serialized (the daemon already runs them on a single
        #: reader thread; the lock makes the resident state safe regardless)
        self._read_lock = threading.Lock()
        self._resident: List[Optional[_ResidentShard]] = [None] * num_shards
        #: the daemon's mutation serial counter, for replica-lag gauges
        #: (assigned after construction; ``None`` disables lag tracking)
        self.serial_source: Optional[Callable[[], int]] = None
        #: the WAL head: what every ``read`` and ``stats`` is pinned at and
        #: the follower thread keeps the fleet at (assigned after construction;
        #: ``None`` refuses to pin and starts no thread)
        self.offset_source: Optional[Callable[[], int]] = None
        #: the supervisor's ``kick``, called when a follow fails (assigned
        #: once a supervisor exists; the router never imports supervision)
        self.kick_supervisor: Optional[Callable[[], None]] = None
        #: per-shard mutation serial the worker is known to have replayed:
        #: advanced by every follow ack and every shipped read
        self.followed_serials: Dict[int, int] = {}
        self._follower: Optional[threading.Thread] = None
        self._follow_wake = threading.Event()
        self._follow_stopping = False

    def _spawn(self, shard: int) -> ShardWorkerHandle:
        return ShardWorkerHandle(
            self.wal_dir,
            shard,
            self.num_shards,
            self._start_method,
            bootstrap=self._bootstrap,
            adopt_floor=self._adopt_floor,
            allow_from_zero=self._allow_from_zero,
            adopt_min_gap=self._adopt_min_gap,
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
                # the replacement holds no shipped base; drop the resident
                # view so the next read full-ships from the new worker
                self._resident[shard] = None
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
        them, and from the one source reads, ``stats`` and follows share,
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
        with self._lock:  # the read thread and the follower both report
            for shard in range(self.num_shards):
                if serial > self.followed_serials.get(shard, -1):
                    self.followed_serials[shard] = serial

    def _fan_out(self, command) -> List[Any]:
        """Send a command to every worker first, then collect — workers
        compute concurrently.

        ``command`` is one tuple broadcast to the whole fleet, a list of
        per-shard tuples (positional; must match the fleet size), or a
        callable returning either — evaluated only once every handle's lock
        is held, which is where a command that carries a WAL offset must
        take it (:meth:`_pin`).

        Every handle's lock is held for the duration (``busy_since`` set for
        the supervisor's hang detection).  On a partial failure the workers
        already sent to still owe replies; they are drained so their pipes
        stay in sync — a drain blocked on a wedged worker resolves when the
        supervisor kills it (EOF → :class:`WorkerError`).
        """
        with self._held_fleet() as handles:
            if callable(command):
                command = command()
            per_handle = command if isinstance(command, list) else None
            if per_handle is not None and len(per_handle) != len(handles):
                raise WorkerError(
                    f"{len(per_handle)} per-shard commands for {len(handles)} workers"
                )
            owed: List[ShardWorkerHandle] = []
            try:
                for position, handle in enumerate(handles):
                    handle.send(
                        per_handle[position] if per_handle is not None else command
                    )
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
            except Exception:  # noqa: BLE001 - reads still catch up at their pin
                pass

    def _follow(self) -> None:
        """Bring the fleet to the head of the log: one ``follow`` fan-out.

        The worker serves it with the very ``catch_up`` a read calls, so a
        read that comes next finds nothing left to replay.  A follow that
        fails may have left its worker half-way through a record; that
        worker must never answer again, so it is killed here and the
        supervisor kicked — which finds it dead and replaces it through the
        one respawn path (counted, journaled); until then reads degrade, as
        after any other worker failure.
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

    def pinned_view(
        self, lookup: Optional[Tuple[int, str]] = None
    ) -> Tuple[MergedIndexView, int, int]:
        """A read view, the optional node lookup, and the offset it is pinned at.

        The pin is the head of ``offset_source``, taken inside the fan-out
        once every handle lock is held (:meth:`_pin`) — the caller learns it
        from the return value and must report that one, not an offset of its
        own.

        Ships deltas against the resident per-shard states when the workers
        still hold the lineage the router last received from them; any
        mismatch (first contact, respawn, checkpoint adoption, compaction,
        ``delta_shipping`` off) degrades to a full ship for that shard.
        """
        with self._read_lock:
            trace = current_trace()
            traced = trace is not None and trace.enabled
            with self._lock:
                resident = list(self._resident)
            bases = []
            for shard in range(self.num_shards):
                entry = resident[shard] if self.delta_shipping else None
                bases.append(
                    {"lineage": entry.lineage, "epoch": entry.state.epoch}
                    if entry is not None
                    else None
                )
            offset = serial = None

            def commands() -> List[Tuple]:
                nonlocal offset, serial
                offset, serial = self._pin()
                trace_id = trace.trace_id if traced else None
                return [("read", offset, lookup, base, trace_id) for base in bases]

            with (
                trace.span("fan-out", shards=self.num_shards)
                if traced
                else nullcontext()
            ) as span:
                payloads = self._fan_out(commands)
                if span is not None:
                    span.tags["offset"] = offset
                    # the workers measured their replay/export phases
                    # locally; graft them under this fan-out span
                    for shard, payload in enumerate(payloads):
                        if payload.get("spans"):
                            trace.graft(f"shard{shard}", payload["spans"])
            started = time.perf_counter()
            full_reads = delta_reads = 0
            bytes_full = bytes_delta = 0
            failed: List[Tuple[int, Exception]] = []
            for shard, payload in enumerate(payloads):
                try:
                    state = ShardWorkerHandle.materialize(payload, shard)
                    meta = state["meta"]
                    if int(meta["offset"]) != offset:
                        raise IndexStateError(
                            f"shipped at offset {meta['offset']} for a read pinned at {offset}"
                        )
                    if state["kind"] == "delta":
                        entry = resident[shard]
                        if (
                            entry is None
                            or entry.lineage != meta["lineage"]
                            or entry.state.epoch != int(meta["base_epoch"])
                        ):
                            raise IndexStateError(
                                "shipped a delta against a base the router does not hold"
                            )
                        entry.state.apply_delta(state["arrays"], meta)
                        delta_reads += 1
                        bytes_delta += len(payload["ship"])
                    else:
                        shipped = IndexState()
                        shipped.apply_full(state["arrays"], meta)
                        resident[shard] = _ResidentShard(shipped, str(meta["lineage"]))
                        full_reads += 1
                        bytes_full += len(payload["ship"])
                    # every shard holds the whole registry: any one resolves
                    lookup_node = int(meta["lookup_node"])
                except Exception as error:  # noqa: BLE001 - raised below
                    # a ship that did not apply leaves nothing to build on: the
                    # shard's next read ships full.  The other shards applied
                    # theirs, and their workers rebased on it: they stay
                    failed.append((shard, error))
                    resident[shard] = None
            with self._lock:
                self._resident = resident
            if failed:
                shard, error = failed[0]
                if isinstance(error, WorkerError):
                    raise error
                raise WorkerError(f"shard {shard}: {type(error).__name__}: {error}") from error
            # every shard shipped state consistent with this pin, so the
            # whole fleet is caught up to the serial captured at pin time
            self._mark_followed(serial)
            if traced:
                trace.add_span(
                    "view-apply",
                    (time.perf_counter() - started) * 1e3,
                    full=full_reads,
                    delta=delta_reads,
                    bytes=bytes_full + bytes_delta,
                )
            if self.metrics is not None:
                self.metrics.increment("read_bytes_shipped", bytes_full + bytes_delta)
                self.metrics.increment("read_bytes_full", bytes_full)
                self.metrics.increment("read_bytes_delta", bytes_delta)
                self.metrics.increment("full_reads", full_reads)
                self.metrics.increment("delta_reads", delta_reads)
                self.metrics.record(
                    "view_apply", time.perf_counter() - started, True
                )
            view = MergedIndexView(
                [entry.state for entry in resident], self._resolve, "serve-pinned"
            )
            return view, lookup_node, offset

    def shard_stats(self) -> Tuple[int, List[Dict[str, Any]]]:
        """The offset pinned (under the handle locks, like a read's) and the
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

    def ping(self) -> List[Dict[str, Any]]:
        return self._fan_out(("ping",))

    def stop(self) -> None:
        """Stop the follower, then every worker (idempotent)."""
        self.stop_following()
        with self._lock:
            handles, self._handles = self._handles, []
            self._resident = [None] * self.num_shards
        for handle in handles:
            handle.stop()
