"""Pinned read views over the shard workers' states.

A ``match`` or ``top_k`` query pins a WAL offset, asks every shard worker
for its read state *at exactly that offset*, and assembles the states into
a :class:`~repro.incremental.ShardedMutableBlockIndex` whose shards are
lightweight :class:`ShardStateStub` objects duck-typing the
:class:`~repro.incremental.MutableBlockIndex` read surface.  Everything
downstream — the merged pair union, the shard-major CSR concatenation,
:class:`~repro.incremental.sharded.ShardedStatistics`, canonical
renumbering, block totals — is the PR 5 merge contract reused verbatim, and
the answer itself is :func:`repro.incremental.session.exact_answer`, the
very function :meth:`MatchingSession.retained` runs, so a pinned read
computes **exactly** what an offline
:class:`~repro.incremental.MatchingSession` computes after replaying the
same log prefix (the sharded/unsharded equivalence already proven by
``tests/incremental/test_sharded_index.py``).

The shipped read state is arrays only — thirteen per shard plus a handful
of scalars (:meth:`MutableBlockIndex.export_state`).  Per-block member
lists and block keys never cross the worker boundary: the only thing a
read ever took from them was ``Σ|b|`` for the cardinality budgets, which
ships as the ``total_block_assignments`` scalar.

Entity-id resolution is delegated to a caller-provided function: node ids
are append-only in the authority index (slots are tombstoned, never
reused), so the daemon's live ``entity_id(node)`` is correct for any node
that exists at *any* pinned offset ≤ the current one.

Shipping is incremental: the router keeps one **resident**
:class:`ShardStateStub` per shard and hands each worker a
``{"lineage", "epoch"}`` handshake describing the state it already holds;
the worker replies with a delta (applied to the resident stub in place) or
a full state (first contact, respawned worker, checkpoint adoption or
compaction — anything that breaks the lineage).  Only the cheap merged
wrapper is rebuilt per query.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pruning import SupervisedPruningAlgorithm, strength_order
from ..obs.trace import current_trace, hook_span
from ..datamodel import CandidateSet, EntityIndexSpace
from ..incremental.delta import DeltaFeatureGenerator
from ..incremental.index import _Growable
from ..incremental.session import exact_answer
from ..incremental.sharded import ShardedMutableBlockIndex
from ..pairs import pack_pair_keys
from ..weights.sparse import EntityBlockCSR
from .workers import ShardWorkerHandle, WorkerError


def _grown(array: np.ndarray) -> _Growable:
    cell = _Growable(array.dtype, capacity=max(1, int(array.size)))
    cell.extend(array)
    return cell


class ShardStateStub:
    """One shard's shipped read state behind the index read surface.

    Implements exactly the attributes and methods the sharded merge layer
    touches on its shards: the ``_Growable``-shaped aggregate arrays, the
    full pair registry with its alive mask, the block-assignment total,
    :meth:`csr` and the node-registry helpers.

    Unlike its PR 7 ancestor the stub is *persistent*: :meth:`apply_full`
    (re)builds it from a full ship and :meth:`apply_delta` advances it in
    place — appended slot/CSR/pair tails, scattered per-entity and
    per-block aggregates, tombstones — so a warm read costs O(changed),
    not O(state).
    """

    def __init__(self, resolve_entity_id: Callable[[int], str]) -> None:
        self._resolve = resolve_entity_id
        self._canonical: Optional[np.ndarray] = None

    def _refresh_scalars(self, meta: Dict[str, Any]) -> None:
        self.num_blocks = int(meta["num_blocks"])
        self.num_nonempty_blocks = int(meta["num_nonempty_blocks"])
        self.total_cardinality = int(meta["total_cardinality"])
        self.total_block_assignments = int(meta["total_block_assignments"])
        self._side_counts = list(meta["side_counts"])
        if len(self._block_cardinalities) != self.num_blocks:
            raise WorkerError(
                f"shard state desynchronized: {len(self._block_cardinalities)} "
                f"blocks held but the shipped state reports {self.num_blocks}"
            )
        if len(self._sides) != int(meta["num_slots"]):
            raise WorkerError(
                f"shard state desynchronized: {len(self._sides)} node slots "
                f"held but the shipped state reports {meta['num_slots']}"
            )
        if self._num_live != int(meta["num_pairs"]):
            raise WorkerError(
                f"shard state desynchronized: {self._num_live} live pairs "
                f"held but the shipped state reports {meta['num_pairs']}"
            )

    def apply_full(self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
        """(Re)build the stub from a complete shipped state."""
        self.bilateral = bool(meta["bilateral"])
        self._indptr = _grown(arrays["indptr"])
        self._indices = _grown(arrays["indices"])
        self._sides = _grown(arrays["sides"])
        self._block_cardinalities = _grown(arrays["block_cardinality"])
        self._inverse_block_cardinalities = _grown(arrays["inv_block_cardinality"])
        self._inverse_block_sizes = _grown(arrays["inv_block_size"])
        self._blocks_per_entity = _grown(arrays["blocks_per_entity"])
        self._entity_cardinality = _grown(arrays["entity_cardinality"])
        self._entity_inv_cardinality = _grown(arrays["entity_inv_cardinality"])
        self._entity_inv_size = _grown(arrays["entity_inv_size"])
        self._pair_left = _grown(arrays["pair_left"])
        self._pair_right = _grown(arrays["pair_right"])
        self._pair_alive = _grown(arrays["pair_alive"])
        self._num_live = int(np.count_nonzero(arrays["pair_alive"]))
        self._canonical = None
        self._refresh_scalars(meta)

    def apply_delta(self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
        """Advance the stub in place by one shipped delta."""
        self._canonical = None
        # new node slots: sides tail + zeroed per-entity aggregates (the
        # dirty-entity scatter below fills in the real values)
        sides_tail = arrays["sides_tail"]
        if sides_tail.size:
            self._sides.extend(sides_tail)
            zeros = np.zeros(sides_tail.size)
            for cell in (
                self._blocks_per_entity,
                self._entity_cardinality,
                self._entity_inv_cardinality,
                self._entity_inv_size,
            ):
                cell.extend(zeros)
        tombstoned = arrays["tombstoned_nodes"]
        if tombstoned.size:
            self._sides[tombstoned] = np.int8(-1)
        dirty_entities = arrays["dirty_entities"]
        if dirty_entities.size:
            self._blocks_per_entity[dirty_entities] = arrays["dirty_blocks_per_entity"]
            self._entity_cardinality[dirty_entities] = arrays[
                "dirty_entity_cardinality"
            ]
            self._entity_inv_cardinality[dirty_entities] = arrays[
                "dirty_entity_inv_cardinality"
            ]
            self._entity_inv_size[dirty_entities] = arrays["dirty_entity_inv_size"]
        # new blocks (always dirty: ids at or past the held count) get
        # neutral aggregates, then the dirty scatter fills every changed one
        dirty_blocks = arrays["dirty_blocks"]
        created = int(np.count_nonzero(dirty_blocks >= len(self._block_cardinalities)))
        if created:
            self._block_cardinalities.extend(np.zeros(created, dtype=np.int64))
            self._inverse_block_cardinalities.extend(np.ones(created))
            self._inverse_block_sizes.extend(np.ones(created))
        if dirty_blocks.size:
            self._block_cardinalities[dirty_blocks] = arrays["dirty_block_cardinality"]
            self._inverse_block_cardinalities[dirty_blocks] = arrays[
                "dirty_inv_block_cardinality"
            ]
            self._inverse_block_sizes[dirty_blocks] = arrays["dirty_inv_block_size"]
        # CSR tails (rows are append-only, removals never rewrite them)
        if arrays["indices_tail"].size:
            self._indices.extend(arrays["indices_tail"])
        if arrays["indptr_tail"].size:
            self._indptr.extend(arrays["indptr_tail"])
        # pair registry: appended tail + tombstoned positions
        tail = arrays["pair_left_tail"]
        if tail.size:
            alive_tail = arrays["pair_alive_tail"]
            self._pair_left.extend(tail)
            self._pair_right.extend(arrays["pair_right_tail"])
            self._pair_alive.extend(alive_tail)
            self._num_live += int(np.count_nonzero(alive_tail))
        dead = arrays["dead_pair_positions"]
        if dead.size:
            self._pair_alive[dead] = False
            self._num_live -= int(dead.size)
        self._refresh_scalars(meta)

    # -- registry surface --------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._sides)

    @property
    def num_entities(self) -> int:
        return int(self._side_counts[0] + self._side_counts[1])

    @property
    def num_pairs(self) -> int:
        return self._num_live

    def sides(self) -> np.ndarray:
        return self._sides.view()

    def side_of(self, node: int) -> int:
        return int(self._sides[node])

    def is_live(self, node: int) -> bool:
        return int(self._sides[node]) >= 0

    def entity_id(self, node: int) -> str:
        return self._resolve(int(node))

    def index_space(self) -> EntityIndexSpace:
        if self.bilateral:
            return EntityIndexSpace(self._side_counts[0], self._side_counts[1])
        return EntityIndexSpace(self._side_counts[0])

    def canonical_node_ids(self) -> np.ndarray:
        if self._canonical is None:
            sides = self._sides.view()
            canonical = np.full(sides.size, -1, dtype=np.int64)
            first_nodes = np.flatnonzero(sides == 0)
            canonical[first_nodes] = np.arange(first_nodes.size, dtype=np.int64)
            second_nodes = np.flatnonzero(sides == 1)
            canonical[second_nodes] = first_nodes.size + np.arange(
                second_nodes.size, dtype=np.int64
            )
            self._canonical = canonical
        return self._canonical

    def canonical_candidates(self, candidates: CandidateSet) -> CandidateSet:
        canonical = self.canonical_node_ids()
        left = canonical[candidates.left]
        right = canonical[candidates.right]
        if left.size and (np.any(left < 0) or np.any(right < 0)):
            raise ValueError("candidate set references removed entities")
        return CandidateSet(
            np.minimum(left, right), np.maximum(left, right), self.index_space()
        )

    # -- block surface -----------------------------------------------------------
    def csr(self) -> EntityBlockCSR:
        return EntityBlockCSR(
            indptr=self._indptr.view(),
            indices=self._indices.view(),
            num_blocks=self.num_blocks,
        )


class _ResidentShard:
    """One shard's resident stub plus the handshake that advances it."""

    __slots__ = ("stub", "lineage", "epoch")

    def __init__(self, stub: ShardStateStub, lineage: str, epoch: int) -> None:
        self.stub = stub
        self.lineage = lineage
        self.epoch = epoch


def merged_stub_view(
    stubs: Sequence[ShardStateStub], name: str = "serve-pinned"
) -> ShardedMutableBlockIndex:
    """The cheap merged wrapper over per-shard stubs.

    A real :class:`ShardedMutableBlockIndex` (built without ``__init__``)
    so every merged read path — pair union, shard-major CSR concatenation,
    :class:`~repro.incremental.sharded.ShardedStatistics`, canonical
    renumbering, block totals — runs the PR 5 merge code unchanged.
    Built fresh per query (it caches merged pairs), over stubs that may be
    long-lived residents.
    """
    view = ShardedMutableBlockIndex.__new__(ShardedMutableBlockIndex)
    view.blocking = None
    view.bilateral = bool(stubs[0].bilateral)
    view.num_shards = len(stubs)
    view.name = name
    view.executor = None
    view.shards = list(stubs)
    view._mutations = 0
    view._pairs_cache = None
    view._wal = None
    return view


def build_pinned_view(
    states: Sequence[Dict[str, Any]],
    resolve_entity_id: Callable[[int], str],
    name: str = "serve-pinned",
) -> ShardedMutableBlockIndex:
    """Assemble *full* shard states into a read-only sharded index view.

    The from-scratch assembly (and the oracle the resident delta-maintained
    path is property-tested against): every state must be a ``kind ==
    "full"`` ship, all pinned at the same WAL offset.
    """
    if not states:
        raise ValueError("at least one shard state is required")
    offsets = {int(state["meta"]["offset"]) for state in states}
    if len(offsets) != 1:
        raise ValueError(f"shard states pin different offsets: {sorted(offsets)}")
    stubs = []
    for state in states:
        if state.get("kind", state["meta"].get("kind", "full")) != "full":
            raise ValueError("build_pinned_view requires full shard states")
        stub = ShardStateStub(resolve_entity_id)
        stub.apply_full(state["arrays"], state["meta"])
        stubs.append(stub)
    return merged_stub_view(stubs, name=name)


# -- query evaluation over a pinned view -----------------------------------------

def _oriented_pair(view, i: int, j: int) -> Tuple[str, str]:
    """Order a retained pair (first side, second side) when bilateral."""
    if view.bilateral and view.side_of(i) == 1:
        i, j = j, i
    return (view.entity_id(i), view.entity_id(j))


def match_answer(
    view: ShardedMutableBlockIndex,
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
        [*_oriented_pair(view, int(i), int(j)), float(probability)]
        for i, j, probability in zip(
            candidates.left[mask], candidates.right[mask], probabilities[mask]
        )
    )
    return {"num_candidates": len(candidates), "retained": retained}


def top_k_answer(
    view: ShardedMutableBlockIndex, model, node: int, k: int
) -> List[Dict[str, Any]]:
    """The ``k`` most likely matches of one entity at the pinned offset.

    Scores only the pairs containing ``node`` (the delta feature path makes
    point queries cheap); ties are broken deterministically by packed
    candidate key.
    """
    with hook_span("merge-pairs"):
        candidates = view.candidate_set()
    mask = (candidates.left == node) | (candidates.right == node)
    left = candidates.left[mask]
    right = candidates.right[mask]
    if left.size == 0:
        return []
    subset = CandidateSet(left, right, view.index_space())
    with hook_span("features"):
        matrix = DeltaFeatureGenerator(view, model.feature_set).generate(subset)
    with hook_span("score"):
        probabilities = model.score(matrix.values)
    keys = pack_pair_keys(left, right)
    order = strength_order(probabilities, keys)[: max(0, int(k))]
    matches = []
    for position in order.tolist():
        counterpart = int(right[position] if left[position] == node else left[position])
        matches.append(
            {
                "entity_id": view.entity_id(counterpart),
                "side": view.side_of(counterpart),
                "probability": float(probabilities[position]),
            }
        )
    return matches


class ShardRouter:
    """The daemon's fleet of shard workers plus the pinned-view assembly.

    The fleet is mutable: :meth:`respawn` replaces one shard's worker with
    a freshly spawned one (checkpoint adoption makes the replacement cheap)
    while reads keep flowing through the others.  Handle swaps happen under
    the router lock; request traffic holds each handle's own lock, so a
    swapped-out worker is never written to mid-request.

    Reads are delta-shipped: the router keeps one resident
    :class:`ShardStateStub` per shard and passes each worker the
    ``{"lineage", "epoch"}`` base it holds, so a warm read ships only what
    changed since the previous one.  A respawn invalidates the shard's
    resident entry; even if an in-flight read resurrects a stale entry the
    replacement worker's fresh lineage token forces the next read to ship
    full state, so the resident view can never silently diverge.
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
        #: per-shard mutation serial at the last successful state ship
        self.shipped_serials: Dict[int, int] = {}
        #: per-shard resident shared-memory bytes, as last reported by each
        #: worker's :class:`~repro.serve.workers.ExportSlots`
        self.worker_shm_bytes: Dict[int, int] = {}

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
        """Spawn one worker per shard (idempotent)."""
        with self._lock:
            if not self._handles:
                self._handles = [
                    self._spawn(shard) for shard in range(self.num_shards)
                ]
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
                # the old worker's export slots die with it
                self.worker_shm_bytes.pop(shard, None)
        if not swapped:
            fresh.kill()
            return None
        current.kill()
        return fresh

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _fan_out(self, command) -> List[Any]:
        """Send a command to every worker first, then collect — workers
        compute concurrently.

        ``command`` is one tuple broadcast to the whole fleet, or a list of
        per-shard tuples (positional; must match the fleet size).

        Every handle's lock is held for the duration (``busy_since`` set for
        the supervisor's hang detection).  On a partial failure the workers
        already sent to still owe replies; they are drained so their pipes
        stay in sync — a drain blocked on a wedged worker resolves when the
        supervisor kills it (EOF → :class:`WorkerError`).
        """
        per_handle = command if isinstance(command, list) else None
        with self._lock:
            handles = list(self._handles)
        if per_handle is not None and len(per_handle) != len(handles):
            raise WorkerError(
                f"{len(per_handle)} per-shard commands for {len(handles)} workers"
            )
        for handle in handles:
            handle.lock.acquire()
        now = time.monotonic()
        for handle in handles:
            handle.busy_since = now
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
        finally:
            for handle in handles:
                handle.busy_since = None
                handle.lock.release()

    def pinned_view(
        self, offset: int, lookup: Optional[Tuple[int, str]] = None
    ) -> Tuple[ShardedMutableBlockIndex, int]:
        """A read view pinned at ``offset`` plus the optional node lookup.

        Ships deltas against the resident per-shard stubs when the workers
        still hold the lineage the router last received from them; any
        mismatch (first contact, respawn, checkpoint adoption, compaction,
        ``delta_shipping`` off) degrades to a full ship for that shard.
        """
        with self._read_lock:
            trace = current_trace()
            traced = trace is not None and trace.enabled
            serial = (
                self.serial_source() if self.serial_source is not None else None
            )
            with self._lock:
                resident = list(self._resident)
            commands = []
            for shard in range(self.num_shards):
                entry = resident[shard] if self.delta_shipping else None
                base = (
                    {"lineage": entry.lineage, "epoch": entry.epoch}
                    if entry is not None
                    else None
                )
                commands.append(
                    (
                        "read",
                        int(offset),
                        lookup,
                        base,
                        trace.trace_id if traced else None,
                    )
                )
            with (
                trace.span("fan-out", shards=self.num_shards, offset=int(offset))
                if traced
                else nullcontext()
            ):
                payloads = self._fan_out(commands)
                states = [
                    ShardWorkerHandle.materialize(payload) for payload in payloads
                ]
                if traced:
                    # the workers measured their replay/export phases locally;
                    # graft the shipped span lists under this fan-out span
                    for state in states:
                        worker_spans = state["meta"].get("spans")
                        if worker_spans:
                            trace.graft(
                                f"shard{state['meta'].get('shard')}", worker_spans
                            )
            offsets = {int(state["meta"]["offset"]) for state in states}
            if len(offsets) != 1:
                raise WorkerError(
                    f"shard states pin different offsets: {sorted(offsets)}"
                )
            started = time.perf_counter()
            full_reads = delta_reads = 0
            bytes_full = bytes_delta = 0
            for shard, state in enumerate(states):
                meta = state["meta"]
                shm_bytes = meta.get("export_slot_bytes")
                if shm_bytes is not None:
                    self.worker_shm_bytes[shard] = int(shm_bytes)
                nbytes = sum(int(a.nbytes) for a in state["arrays"].values())
                if state["kind"] == "delta":
                    entry = resident[shard]
                    if (
                        entry is None
                        or entry.lineage != meta["lineage"]
                        or entry.epoch != int(meta["base_epoch"])
                    ):
                        raise WorkerError(
                            f"shard {shard} shipped a delta against a base "
                            "the router does not hold"
                        )
                    entry.stub.apply_delta(state["arrays"], meta)
                    entry.epoch = int(meta["epoch"])
                    delta_reads += 1
                    bytes_delta += nbytes
                else:
                    stub = ShardStateStub(self._resolve)
                    stub.apply_full(state["arrays"], meta)
                    resident[shard] = _ResidentShard(
                        stub, str(meta["lineage"]), int(meta["epoch"])
                    )
                    full_reads += 1
                    bytes_full += nbytes
            with self._lock:
                self._resident = resident
            if serial is not None:
                # every shard shipped state consistent with this pin, so the
                # whole fleet is caught up to the serial captured at pin time
                for shard in range(self.num_shards):
                    self.shipped_serials[shard] = serial
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
            view = merged_stub_view([entry.stub for entry in resident])
            return view, int(states[0]["meta"]["lookup_node"])

    def shard_stats(self, offset: int) -> List[Dict[str, Any]]:
        """Per-shard counters at ``offset`` (tolerant: a dead or rebuilding
        worker reports an ``error`` entry instead of failing the call)."""
        stats: List[Dict[str, Any]] = []
        for shard in range(self.num_shards):
            try:
                stats.append(self.handle(shard).request(("stats", int(offset))))
            except Exception as error:  # noqa: BLE001 - per-shard tolerance
                stats.append({"shard": shard, "error": str(error)})
        return stats

    def ping(self) -> List[Dict[str, Any]]:
        return self._fan_out(("ping",))

    def stop(self) -> None:
        """Stop every worker (idempotent)."""
        with self._lock:
            handles, self._handles = self._handles, []
            self._resident = [None] * self.num_shards
        for handle in handles:
            handle.stop()
