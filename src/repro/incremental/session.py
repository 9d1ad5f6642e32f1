"""Online matching sessions on top of the incremental block index.

A :class:`MatchingSession` wraps a *frozen* probabilistic classifier taken
from a batch pipeline run (:class:`FrozenModel`: defined in
:mod:`repro.ml.base`, also exported from here) and serves the full dynamic
workload: every ``insert`` registers the entity in a
:class:`MutableBlockIndex`, computes the feature vectors of the candidate
delta with a :class:`DeltaFeatureGenerator`, scores them with the frozen
model, and returns the entity's current matches under an *online* pruning
policy; ``remove`` retracts an entity and evicts its dead pairs from the
online aggregates; ``update`` corrects an entity in place; ``insert_bulk``
loads a batch through the index's one-pass bulk path.

The online policies:

* :class:`OnlineWEP` — the WEP average-probability threshold maintained as a
  running sum/count of valid scores; retractions subtract the dead pairs'
  insert-time scores from the running aggregate;
* :class:`OnlineTopK` — a CEP-style global top-K admission maintained with a
  :class:`repro.utils.pqueue.BoundedTopQueue`; retractions lazily delete the
  dead pairs from the queue.

Two contracts, one per surface:

* **insert time is approximate by design.**  ``insert`` / ``insert_bulk`` /
  ``update`` score the *raw* candidate delta — every pair the new entity
  shares a token with, before Block Purging and Block Filtering — against
  the statistics of that moment, and the online policies admit on those
  scores.  The session keeps each live raw pair's insert-time score
  (:class:`PairProbabilities`) for the policies' retractions; a pair that
  Block Filtering later drops and re-admits keeps its insert-time score
  throughout, and the exact answer never reads it;
* **the exact answer is the batch pipeline's.**
  :meth:`MatchingSession.retained` reads the live collection under the block
  cleaning the frozen model was trained on (:attr:`FrozenModel.cleaning`:
  the paper's Block Purging 0.5 + Block Filtering 0.8 for a model from
  :func:`~repro.incremental.train_frozen_model`, none for a hand-built one),
  derives every pair of the cleaned collection — in the canonical batch
  numbering and order, with its co-occurrence aggregates — from the CSR in
  one reduce pass (no re-blocking, no stored pair list), evaluates it
  against the cleaned statistics and applies the configured *batch* pruning
  algorithm, its budgets read off the cleaned block totals.  Any
  interleaving of inserts, removals, updates and bulk loads ending in
  collection ``C`` therefore reproduces what ``prepare_blocks`` with that
  cleaning plus the batch pipeline retain on ``C`` — for every pruning
  algorithm, including the cardinality-based CEP/CNP/RCNP, whose probability
  ties are broken deterministically by packed candidate key on both sides.
  The equivalence tests in ``tests/incremental/`` assert this exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pruning import SupervisedPruningAlgorithm, get_pruning_algorithm
from ..core.pruning.base import VALIDITY_THRESHOLD
from ..datamodel.entity import EntityProfile
from ..ml.base import FrozenModel
from ..obs.trace import hook_span
from ..utils.pqueue import BoundedTopQueue
from .delta import DeltaFeatureGenerator
from .index import MutableBlockIndex, RetractionDelta, UnknownEntityError
from .state import LiveCandidates


def exact_answer(
    features: DeltaFeatureGenerator, model: FrozenModel, pruning
) -> Tuple[LiveCandidates, np.ndarray, np.ndarray]:
    """Clean → derive → score → prune over every live pair of ``features.index``.

    The one exact read path, shared by :meth:`MatchingSession.retained` and
    the serving layer's ``match``: the live collection read under the block
    cleaning the model was trained on (:attr:`FrozenModel.cleaning`), its
    pairs and their features derived from the cleaned CSR
    (:meth:`DeltaFeatureGenerator.generate_all`), frozen-model scoring, and
    the batch pruning algorithm over the pairs' canonical twin, its budgets
    read off the cleaned collection's block totals — arrays only: no block
    collection is materialised, no stored pair read.  Returns the live
    candidates (raw node ids, batch candidate order), their probabilities and
    the retained mask.
    """
    candidates, matrix, statistics = features.generate_all(model.cleaning)
    with hook_span("score"):
        probabilities = model.score(matrix.values)
    with hook_span("prune"):
        if len(candidates) == 0:
            mask = np.zeros(0, dtype=bool)
        else:
            mask = pruning.prune(probabilities, candidates.canonical, statistics.block_totals())
    return candidates, probabilities, mask


class StaleSessionError(RuntimeError):
    """The session's index was compacted underneath it.

    :meth:`MutableBlockIndex.compact` reassigns raw node ids, and with them
    the packed pair keys the session's per-pair state (insert-time
    probabilities, online top-K queue items) is keyed by, which becomes
    silently wrong.  The session detects the generation bump and refuses
    further operations — call :meth:`MatchingSession.compact`, which remaps
    its state, instead of ``session.index.compact()``.
    """

    def __init__(self) -> None:
        super().__init__(
            "the session's index was compacted directly (index.compact()): "
            "pair keys held by the online policy and the insert-time "
            "probabilities are stale — compact through MatchingSession.compact(), "
            "which remaps its per-pair state"
        )


class PairProbabilities:
    """The insert-time probability of every live pair, keyed by raw packed
    pair key (:func:`repro.pairs.pack_pair_keys`).

    Pairs loaded together — a bulk insert, a snapshot restore, a compaction
    — live in a sorted key / value array pair with a tombstone mask; pairs
    inserted one at a time live in a dict.  A lookup is one
    ``np.searchsorted`` over the arrays plus a dict ``pop`` for the rest, so
    loading in bulk never builds a per-pair Python object.
    """

    def __init__(
        self,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ) -> None:
        self._keys = np.empty(0, dtype=np.int64) if keys is None else keys
        self._values = np.empty(0) if values is None else values
        self._alive = np.ones(self._keys.size, dtype=bool)
        self._single: Dict[int, float] = {}

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store the probabilities of pairs inserted one entity at a time."""
        self._single.update(zip(keys.tolist(), values.tolist()))

    def add_sorted(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store a bulk load's probabilities (``keys`` ascending): one merge
        into the arrays, which drops the tombstones and absorbs the dict."""
        if keys.size == 0:
            return
        live_keys, live_values = self.items()
        merged = np.concatenate((live_keys, keys))
        order = np.argsort(merged, kind="stable")
        self._keys = merged[order]
        self._values = np.concatenate((live_values, values))[order]
        self._alive = np.ones(self._keys.size, dtype=bool)
        self._single = {}

    def _in_arrays(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Array position of each key and whether it holds the live pair."""
        if self._keys.size == 0:
            return np.zeros(keys.size, dtype=np.int64), np.zeros(keys.size, dtype=bool)
        at = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return at, (self._keys[at] == keys) & self._alive[at]

    def pop(self, keys: np.ndarray) -> np.ndarray:
        """Remove live pairs and return their probabilities (``KeyError``
        for a key that is not live)."""
        at, hit = self._in_arrays(keys)
        values = np.empty(keys.size)
        values[hit] = self._values[at[hit]]
        self._alive[at[hit]] = False
        if not hit.all():
            missing = ~hit
            values[missing] = list(map(self._single.pop, keys[missing].tolist()))
        return values

    def missing(self, keys: np.ndarray) -> np.ndarray:
        """The keys that are not live pairs."""
        _, hit = self._in_arrays(keys)
        return np.array(
            [key for key in keys[~hit].tolist() if key not in self._single],
            dtype=np.int64,
        )

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, probabilities)`` of the live pairs, ascending by key."""
        count = len(self._single)
        keys = np.concatenate(
            (self._keys[self._alive], np.fromiter(self._single, np.int64, count))
        )
        values = np.concatenate(
            (
                self._values[self._alive],
                np.fromiter(self._single.values(), np.float64, count),
            )
        )
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]


class OnlinePruningPolicy:
    """Decide, per mutation, which freshly scored pairs currently qualify.

    Pairs are identified by their raw packed pair keys, which also break
    probability ties deterministically for policies that rank pairs.
    """

    name: str = "online"

    def admit(self, probabilities: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Update the online state with the new scores; return an admit mask."""
        raise NotImplementedError

    def retract(self, probabilities: np.ndarray, keys: np.ndarray) -> None:
        """Evict retracted pairs (given their insert-time scores) from the
        online state.  The default is a no-op for stateless policies."""

    # -- durability / compaction hooks -----------------------------------------
    def export_state(self, canonical_keys: Callable[[np.ndarray], np.ndarray]) -> dict:
        """Node-id-independent state for snapshots and compaction.

        ``canonical_keys`` maps raw packed pair keys to the pairs' canonical
        packed keys — the identity that survives compaction and recovery.
        Stateless policies export nothing.
        """
        return {}

    def restore_state(
        self, state: dict, require_live: Callable[[np.ndarray], None]
    ) -> None:
        """Restore :meth:`export_state` output onto a compacted index, whose
        raw node ids are the canonical ids; ``require_live`` raises for keys
        that are not live pairs of it."""

    @classmethod
    def for_state(cls, state: dict) -> "OnlinePruningPolicy":
        """An empty policy of this class, configured like the one whose
        :meth:`export_state` output ``state`` is (restore it next)."""
        return cls()


class OnlineWEP(OnlinePruningPolicy):
    """WEP's average-probability threshold as a running aggregate.

    Keeps the sum and count of all *valid* scores (probability >= 0.5) seen
    so far; a new pair is admitted when its score is valid and reaches the
    current running average — the streaming analogue of Algorithm 1.
    Retracting a pair removes its insert-time score from the running
    aggregate, so deleted entities stop weighing on the threshold.
    """

    name = "wep"

    def __init__(self) -> None:
        self._valid_sum = 0.0
        self._valid_count = 0

    @property
    def threshold(self) -> float:
        """The current admission threshold (running average of valid scores)."""
        if self._valid_count == 0:
            return VALIDITY_THRESHOLD
        return self._valid_sum / self._valid_count

    def admit(self, probabilities: np.ndarray, keys: np.ndarray) -> np.ndarray:
        valid = probabilities >= VALIDITY_THRESHOLD
        self._valid_sum += float(probabilities[valid].sum())
        self._valid_count += int(valid.sum())
        return valid & (probabilities >= self.threshold)

    def retract(self, probabilities: np.ndarray, keys: np.ndarray) -> None:
        valid = probabilities >= VALIDITY_THRESHOLD
        self._valid_sum -= float(probabilities[valid].sum())
        self._valid_count -= int(valid.sum())
        if self._valid_count <= 0:
            # reset exactly; repeated add/subtract cycles must not leave
            # float residue behind an empty aggregate
            self._valid_sum = 0.0
            self._valid_count = 0

    def export_state(self, canonical_keys) -> dict:
        return {"valid_sum": self._valid_sum, "valid_count": self._valid_count}

    def restore_state(self, state: dict, require_live) -> None:
        self._valid_sum = float(state["valid_sum"])
        self._valid_count = int(state["valid_count"])


class OnlineTopK(OnlinePruningPolicy):
    """CEP-style global top-K admission over a bounded priority queue.

    Parameters
    ----------
    capacity:
        The retention budget K.  The queue's minimum retained weight is the
        admission threshold, exactly as in Algorithm 4; evicted pairs simply
        stop being reported (earlier answers are provisional by design).
        Retracted pairs are lazily deleted from the queue, freeing their
        budget slots immediately.
    """

    name = "topk"

    def __init__(self, capacity: int) -> None:
        self._queue: BoundedTopQueue[int] = BoundedTopQueue(capacity)

    @property
    def threshold(self) -> float:
        """The current admission threshold (minimum retained weight)."""
        return max(self._queue.min_weight, VALIDITY_THRESHOLD)

    def admit(self, probabilities: np.ndarray, keys: np.ndarray) -> np.ndarray:
        mask = np.zeros(probabilities.size, dtype=bool)
        for offset, (probability, key) in enumerate(
            zip(probabilities.tolist(), keys.tolist())
        ):
            if probability < VALIDITY_THRESHOLD:
                continue
            mask[offset] = self._queue.push(probability, key, key=key) != key
        return mask

    def retract(self, probabilities: np.ndarray, keys: np.ndarray) -> None:
        for key in keys.tolist():
            self._queue.discard(key)

    def export_state(self, canonical_keys) -> dict:
        """The capacity and the retained weights with their canonical keys,
        strongest first.

        The retained set of a :class:`BoundedTopQueue` is a pure function of
        the (weight, key) multiset, so serializing by canonical key makes
        the state independent of insertion order and raw node ids.
        """
        weighted = self._queue.weighted_items()
        return {
            "capacity": self._queue.capacity,
            "weights": np.array([weight for weight, _ in weighted], dtype=np.float64),
            "keys": canonical_keys(np.array([key for _, key in weighted], dtype=np.int64)),
        }

    def restore_state(self, state: dict, require_live) -> None:
        weights = np.asarray(state["weights"], dtype=np.float64)
        keys = np.asarray(state["keys"], dtype=np.int64)
        if weights.shape != keys.shape or weights.ndim != 1:
            raise ValueError("the top-K policy state holds unaligned weights and keys")
        require_live(keys)
        queue: BoundedTopQueue[int] = BoundedTopQueue(self._queue.capacity)
        for weight, key in zip(weights.tolist(), keys.tolist()):
            queue.push(weight, key, key=key)
        self._queue = queue

    @classmethod
    def for_state(cls, state: dict) -> "OnlineTopK":
        return cls(int(state["capacity"]))


#: the online policies a snapshot names and restores, by :attr:`~OnlinePruningPolicy.name`
ONLINE_POLICIES = {"wep": OnlineWEP, "topk": OnlineTopK}


def _resolve_online_policy(
    online: Union[str, OnlinePruningPolicy, None], top_k: int
) -> OnlinePruningPolicy:
    if isinstance(online, OnlinePruningPolicy):
        return online
    if online is None or online == "wep":
        return OnlineWEP()
    if online == "topk":
        return OnlineTopK(top_k)
    raise ValueError(f"unknown online policy {online!r}; expected 'wep' or 'topk'")


@dataclass(frozen=True)
class InsertResult:
    """The outcome of one streaming insert."""

    #: the inserted entity's identifier
    entity_id: str
    #: node id assigned by the session's index
    node: int
    #: number of candidate pairs the insert introduced
    num_new_pairs: int
    #: match probability of every new pair (aligned with ``counterpart_ids``)
    probabilities: np.ndarray
    #: entity ids of the new candidate counterparts
    counterpart_ids: Tuple[str, ...]
    #: (counterpart id, probability) of the pairs the online policy admitted,
    #: ordered by decreasing probability
    matches: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class RemovalResult:
    """The outcome of one streaming removal."""

    #: the removed entity's identifier
    entity_id: str
    #: node id the entity held (never reused)
    node: int
    #: number of candidate pairs the removal retracted
    num_retracted_pairs: int
    #: entity ids of the retracted counterparts
    counterpart_ids: Tuple[str, ...]


@dataclass(frozen=True)
class UpdateResult:
    """The outcome of one streaming in-place correction."""

    #: the retraction of the old version
    removed: RemovalResult
    #: the insert of the new version (fresh node id, freshly scored pairs)
    inserted: InsertResult


@dataclass(frozen=True)
class BulkInsertResult:
    """The outcome of one bulk load."""

    #: the inserted entities' identifiers, in input order
    entity_ids: Tuple[str, ...]
    #: node ids assigned by the session's index, in input order
    nodes: np.ndarray
    #: number of candidate pairs the batch introduced
    num_new_pairs: int
    #: match probability of every new pair (ascending packed key)
    probabilities: np.ndarray
    #: number of new pairs the online policy admitted
    num_admitted: int


@dataclass
class SessionResult:
    """The exact (batch-equivalent) answer over all live streamed entities."""

    #: every live candidate pair of the collection read under the model's
    #: block cleaning (raw node ids, batch candidate order)
    candidates: LiveCandidates
    #: match probability of every pair under the final statistics
    probabilities: np.ndarray
    #: boolean mask over ``candidates`` (True = retained)
    retained_mask: np.ndarray
    #: retained pairs as entity-id tuples, ordered (first side, second side)
    #: for bilateral sessions and by insertion order for unilateral ones
    retained_ids: Tuple[Tuple[str, str], ...]

    @property
    def retained_count(self) -> int:
        """Number of retained candidate pairs."""
        return int(self.retained_mask.sum())

    def retained_id_set(self) -> set:
        """The retained pairs as a set of entity-id tuples."""
        return set(self.retained_ids)


class MatchingSession:
    """Serve entity inserts, removals and updates against a frozen
    batch-trained matcher.

    Parameters
    ----------
    model:
        The frozen classifier + scaler + feature set (see
        :meth:`FrozenModel.from_batch`).
    bilateral:
        ``True`` for Clean-Clean streams (two sources, cross-source pairs),
        ``False`` for Dirty streams.
    blocking:
        Signature extractor for the underlying index (default token
        blocking).
    pruning:
        The *batch* pruning algorithm name or instance applied by
        :meth:`retained` (default BLAST, the paper's best weight-based
        algorithm).  All algorithms — weight- and cardinality-based — are
        exactly batch-equivalent.
    online:
        The per-insert online policy: ``"wep"`` (default), ``"topk"``, or an
        :class:`OnlinePruningPolicy` instance.
    top_k:
        Budget for the ``"topk"`` policy.
    wal_path:
        Optional directory for a write-ahead log.  Every mutation is
        journaled before it is applied and a full session snapshot (frozen
        model, online-policy state, insert-time probabilities) is written on
        construction and every ``snapshot_every`` mutations, so a crashed
        session resumes with :meth:`MatchingSession.recover` at identical
        thresholds.  The directory must be empty — recovering into an
        existing log goes through :meth:`recover`.
    snapshot_every:
        Mutations between automatic checkpoints (``None`` = only explicit
        :meth:`checkpoint` calls).
    wal_sync:
        ``"always"`` (fsync per record, the durability default) or
        ``"batch"`` (fsync on checkpoint/close only).
    """

    def __init__(
        self,
        model: FrozenModel,
        bilateral: bool = False,
        blocking=None,
        pruning: Union[str, SupervisedPruningAlgorithm] = "BLAST",
        online: Union[str, OnlinePruningPolicy, None] = "wep",
        top_k: int = 1000,
        wal_path=None,
        snapshot_every: Optional[int] = None,
        wal_sync: str = "always",
    ) -> None:
        self.model = model
        self.index = MutableBlockIndex(blocking=blocking, bilateral=bilateral)
        self.features = DeltaFeatureGenerator(self.index, model.feature_set)
        self.pruning = (
            get_pruning_algorithm(pruning) if isinstance(pruning, str) else pruning
        )
        self.online = _resolve_online_policy(online, top_k)
        #: probability of every live pair at the time it was inserted
        #: (provisional), keyed by raw packed pair key
        self._probabilities = PairProbabilities()
        self._top_k = top_k
        self._generation = self.index.generation
        self._snapshot_every = snapshot_every
        self._ops_since_snapshot = 0
        self.wal = None
        if wal_path is not None:
            from ..persistence.log import WriteAheadLog

            wal = WriteAheadLog(wal_path, sync=wal_sync)
            if not wal.is_empty():
                raise ValueError(
                    f"WAL directory {wal.path} already holds a log or snapshots; "
                    "resume it with MatchingSession.recover() instead of "
                    "opening a fresh session over it"
                )
            self.index.attach_wal(wal)
            self.wal = wal
            # an immediate checkpoint persists the frozen model, so recovery
            # always finds a session snapshot to restore thresholds from
            self.checkpoint()

    # -- introspection ---------------------------------------------------------
    @property
    def num_entities(self) -> int:
        """Number of live streamed entities."""
        return self.index.num_entities

    @property
    def num_pairs(self) -> int:
        """Number of live distinct candidate pairs."""
        return self.index.num_pairs

    def insert_time_probabilities(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, probabilities)`` of the live pairs: raw packed pair keys
        ascending, and the provisional score each pair received at insert
        time — *not* aligned with ``retained().candidates``, which come in
        batch order under final-statistics scores."""
        return self._probabilities.items()

    # -- streaming -------------------------------------------------------------
    def _check_generation(self) -> None:
        if self._generation != self.index.generation:
            raise StaleSessionError()

    def _count_op(self) -> None:
        if self.wal is None or self._snapshot_every is None:
            return
        self._ops_since_snapshot += 1
        if self._ops_since_snapshot >= self._snapshot_every:
            self.checkpoint()

    def insert(self, profile: EntityProfile, side: int = 0) -> InsertResult:
        """Insert one entity; return its scored + online-pruned matches."""
        self._check_generation()
        delta = self.index.add_entity(profile, side=side)
        result = self._score_insert(delta)
        self._count_op()
        return result

    def _score_insert(self, delta) -> InsertResult:
        """Score one insert delta and fold it into the online state."""
        matrix = self.features.generate_delta(delta)
        probabilities = self.model.score(matrix.values)
        self._probabilities.add(delta.pair_keys, probabilities)
        admitted = self.online.admit(probabilities, delta.pair_keys)

        counterpart_ids = self.index.entity_ids_of(delta.counterparts)
        order = np.argsort(-probabilities[admitted], kind="stable")
        admitted_offsets = np.flatnonzero(admitted)[order]
        matches = tuple(
            (counterpart_ids[int(offset)], float(probabilities[int(offset)]))
            for offset in admitted_offsets
        )
        return InsertResult(
            entity_id=delta.entity_id,
            node=delta.node,
            num_new_pairs=delta.num_new_pairs,
            probabilities=probabilities,
            counterpart_ids=counterpart_ids,
            matches=matches,
        )

    def insert_many(
        self, profiles: Iterable[EntityProfile], side: int = 0
    ) -> List[InsertResult]:
        """Insert several entities from the same side, one at a time."""
        return [self.insert(profile, side=side) for profile in profiles]

    def insert_bulk(
        self, profiles: Sequence[EntityProfile], side: int = 0
    ) -> BulkInsertResult:
        """Load a batch of same-side entities through the index's bulk path.

        The whole batch is tokenized, merged into the live CSR and scored in
        one pass.  The *index state* (and therefore :meth:`retained`) ends
        up identical to one-at-a-time inserts; the *provisional* online
        admissions may differ, because the policy sees the batch's scores
        together — OnlineWEP folds them all into its running average before
        thresholding any of them, where sequential inserts would threshold
        each pair against the average as of its own arrival.
        """
        self._check_generation()
        delta = self.index.add_entities_bulk(profiles, side=side)
        result = self._score_bulk(delta)
        self._count_op()
        return result

    def _score_bulk(self, delta) -> BulkInsertResult:
        """Score one bulk delta and fold it into the online state."""
        candidates = self.index.bulk_candidate_set(delta)
        matrix = self.features.generate(candidates)
        probabilities = self.model.score(matrix.values)
        self._probabilities.add_sorted(delta.pair_keys, probabilities)
        admitted = self.online.admit(probabilities, delta.pair_keys)
        return BulkInsertResult(
            entity_ids=delta.entity_ids,
            nodes=delta.nodes,
            num_new_pairs=delta.num_new_pairs,
            probabilities=probabilities,
            num_admitted=int(admitted.sum()),
        )

    def remove(self, entity_id: str, side: int = 0) -> RemovalResult:
        """Retract one entity and evict its dead pairs from the online state.

        Raises
        ------
        UnknownEntityError
            When the entity is not currently live on ``side``; neither the
            index nor the online aggregates are touched.
        """
        self._check_generation()
        result = self._retract(self.index.remove_entity(entity_id, side=side))
        self._count_op()
        return result

    def update(self, profile: EntityProfile, side: int = 0) -> UpdateResult:
        """Correct a live entity in place: retract it and re-insert the new
        version (fresh node id, freshly scored pairs) as **one** mutation.

        The index journals a single ``"update"`` record before it applies
        either half, so the correction is atomic under a crash: recovery
        yields the old version or the new one, never neither.  (Logs written
        before this held a ``remove`` and an ``add`` record per update; they
        replay unchanged.)

        Raises
        ------
        UnknownEntityError
            When the entity is not currently live on ``side``; nothing is
            journaled or touched.
        """
        self._check_generation()
        delta = self.index.update_entity(profile, side=side)
        # the order WAL replay uses: evict the old pairs, then score the new
        removed = self._retract(delta.retraction)
        inserted = self._score_insert(delta.insert)
        self._count_op()
        return UpdateResult(removed=removed, inserted=inserted)

    def _retract(self, retraction: RetractionDelta) -> RemovalResult:
        """Fold one retraction into the online state and report it."""
        self._retract_from_online(retraction)
        return RemovalResult(
            entity_id=retraction.entity_id,
            node=retraction.node,
            num_retracted_pairs=retraction.num_retracted_pairs,
            counterpart_ids=self.index.entity_ids_of(retraction.counterparts),
        )

    def _retract_from_online(self, retraction: RetractionDelta) -> None:
        keys = retraction.pair_keys
        if keys.size == 0:
            return
        self.online.retract(self._probabilities.pop(keys), keys)

    # -- durability ------------------------------------------------------------
    def checkpoint(self):
        """Write a full session snapshot into the WAL directory.

        The snapshot embeds the current log offset; recovery loads it and
        replays only the records behind it.  Returns the snapshot path.
        """
        if self.wal is None:
            raise RuntimeError(
                "the session has no write-ahead log; construct it with wal_path="
            )
        self._check_generation()
        from ..persistence.snapshot import session_snapshot_state

        path = self.wal.write_snapshot(session_snapshot_state(self))
        self._ops_since_snapshot = 0
        return path

    def close(self) -> None:
        """Fsync and close the session's log, if any."""
        if self.wal is not None:
            self.wal.close()

    @classmethod
    def recover(cls, path, sync: str = "always") -> "MatchingSession":
        """Resume a WAL-backed session after a crash.

        Loads the newest session snapshot, adopts the compacted index arrays
        it holds (no rebuild, no pair expansion), restores the frozen model,
        the online policy's thresholds and the insert-time probabilities,
        replays the surviving log tail through the frozen model, truncates
        any torn tail record and resumes journaling — the recovered session's
        exact answer (:meth:`retained`) and admission thresholds equal the
        uninterrupted run's at the last durable record.
        """
        from ..persistence.recovery import recover_session

        return recover_session(path, sync=sync)

    @classmethod
    def _from_parts(
        cls,
        model: FrozenModel,
        index: MutableBlockIndex,
        pruning,
        online: OnlinePruningPolicy,
        top_k: int,
        snapshot_every: Optional[int],
        probabilities: PairProbabilities,
    ) -> "MatchingSession":
        """Assemble a session around an already-built index (recovery path)."""
        session = cls.__new__(cls)
        session.model = model
        session.index = index
        session.features = DeltaFeatureGenerator(index, model.feature_set)
        session.pruning = pruning
        session.online = online
        session._probabilities = probabilities
        session._top_k = top_k
        session._generation = index.generation
        session._snapshot_every = snapshot_every
        session._ops_since_snapshot = 0
        session.wal = None
        return session

    def _replay_record(self, record: dict) -> None:
        """Re-apply one logged mutation through the scoring path.

        Replay feeds the record's stored signatures to the index's
        ``_apply_*`` entry points (no re-tokenization) and re-scores the
        resulting deltas with the frozen model.  An insert's statistics are
        derived from the rows it scores, never carried from mutation to
        mutation, so they do not depend on how the index got its rows —
        replayed from the log's start or adopted from a snapshot — and the
        replayed online state matches the original run's bit for bit.
        """
        op = record["op"]
        if op == "meta":
            return
        if op == "add":
            self._score_insert(
                self.index._apply_insert(record["id"], record["side"], record["sig"])
            )
        elif op == "bulk":
            self._score_bulk(
                self.index._apply_bulk(
                    [(entity_id, signatures) for entity_id, signatures in record["entities"]],
                    record["side"],
                )
            )
        elif op == "remove":
            retraction = self.index.remove_entity(record["id"], side=record["side"])
            self._retract_from_online(retraction)
        elif op == "update":
            retraction = self.index.remove_entity(record["id"], side=record["side"])
            self._retract_from_online(retraction)
            self._score_insert(
                self.index._apply_insert(record["id"], record["side"], record["sig"])
            )
        else:
            raise ValueError(f"unknown WAL record op {op!r}")

    # -- compaction ------------------------------------------------------------
    def compact(self) -> None:
        """Compact the index *and* remap the session's per-pair state.

        :meth:`MutableBlockIndex.compact` renumbers the live nodes to their
        canonical ids, which changes every raw packed pair key.  This wrapper
        exports the insert-time probabilities and the online policy's state
        under canonical pair keys first — as a snapshot does — compacts, and
        restores them, since raw keys now *are* the canonical keys.
        Thresholds are unchanged: the online state is the same multiset of
        (weight, pair) under new keys.
        """
        self._check_generation()
        from ..persistence.snapshot import canonical_pair_keys

        index = self.index
        keys, probabilities = self._probabilities.items()
        keys = canonical_pair_keys(index, keys)
        order = np.argsort(keys)
        state = self.online.export_state(lambda raw: canonical_pair_keys(index, raw))
        index.compact()
        self._probabilities = PairProbabilities(keys[order], probabilities[order])
        self.online.restore_state(state, self._require_live)
        self._generation = index.generation

    def _require_live(self, keys: np.ndarray) -> None:
        """Refuse online-policy state held for a pair that is not live."""
        missing = self._probabilities.missing(keys)
        if missing.size:
            raise ValueError(
                f"the {self.online.name} policy state holds pair key "
                f"{int(missing[0])}, which is not a live pair"
            )

    # -- exact finalisation ----------------------------------------------------
    def retained(self) -> SessionResult:
        """The exact answer on the live streamed collection.

        Cleans the live blocks as the model's training blocks were cleaned,
        derives every pair of the cleaned collection with its co-occurrence
        aggregates from the CSR (one vectorized reduce pass, in the canonical
        batch numbering and order), evaluates the schemes against the
        cleaned statistics, scores with the frozen model and applies the
        configured batch pruning algorithm (:func:`exact_answer`) — what the
        batch pipeline retains on the same final collection, for every
        pruning algorithm including CEP/CNP/RCNP.
        """
        self._check_generation()
        candidates, probabilities, mask = exact_answer(
            self.features, self.model, self.pruning
        )
        return SessionResult(
            candidates=candidates,
            probabilities=probabilities,
            retained_mask=mask,
            retained_ids=tuple(candidates.id_pairs(mask, self.index.entity_id)),
        )
