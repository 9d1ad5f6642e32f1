"""Incremental streaming meta-blocking.

The batch pipeline (:mod:`repro.core`) recomputes blocking, feature
generation, scoring and pruning from scratch on every run.  This subsystem
provides the streaming execution mode: entities are inserted one at a time,
each insert costs work proportional to its candidate delta, and a frozen
batch-trained classifier serves online match decisions.

* :class:`IndexState` — the read state of a streaming index (ten arrays, a
  few scalars) and every read over it, :class:`IndexStatistics` and the derived
  :class:`LiveCandidates` included; what a worker ships and a router holds;
* :class:`MutableBlockIndex` — the state that mutates itself: the
  incrementally maintained token/block inverted index, fully dynamic:
  per-entity inserts, removals (:meth:`MutableBlockIndex.remove_entity`),
  in-place updates and one-pass bulk loads
  (:meth:`MutableBlockIndex.add_entities_bulk`);
* :class:`MergedIndexView` / :class:`ShardedMutableBlockIndex` — K
  signature shards read as one index, and the same with mutation routing;
* :class:`DeltaFeatureGenerator` — weighting-scheme feature vectors for the
  candidate delta of an insert, reusing the vectorized weighting kernels;
* :class:`MatchingSession` — the online facade: frozen classifier, per-insert
  scored matches under running WEP/top-K thresholds (both retraction-aware),
  and an exact batch-equivalent :meth:`MatchingSession.retained`
  finalisation covering *every* pruning algorithm, cardinality-based ones
  included.
"""

from .delta import DeltaFeatureGenerator
from .index import (
    BulkInsertDelta,
    DuplicateEntityError,
    InsertDelta,
    MutableBlockIndex,
    RetractionDelta,
    UnknownEntityError,
    UpdateDelta,
)
from .sharded import MergedIndexView, ShardedMutableBlockIndex
from .state import IndexState, IndexStatistics, LiveCandidates
from .session import (
    BulkInsertResult,
    FrozenModel,
    InsertResult,
    MatchingSession,
    OnlinePruningPolicy,
    OnlineTopK,
    OnlineWEP,
    RemovalResult,
    SessionResult,
    StaleSessionError,
    UpdateResult,
)
from .stream import (
    StreamReplay,
    StreamTrainingError,
    evaluate_retained_ids,
    ground_truth_id_pairs,
    interleave_profiles,
    live_truth_id_pairs,
    replay_stream,
    split_bootstrap,
    train_frozen_model,
)

__all__ = [
    "BulkInsertDelta",
    "BulkInsertResult",
    "DeltaFeatureGenerator",
    "DuplicateEntityError",
    "FrozenModel",
    "IndexState",
    "IndexStatistics",
    "InsertDelta",
    "InsertResult",
    "LiveCandidates",
    "MatchingSession",
    "MergedIndexView",
    "MutableBlockIndex",
    "OnlinePruningPolicy",
    "OnlineTopK",
    "OnlineWEP",
    "RemovalResult",
    "RetractionDelta",
    "SessionResult",
    "ShardedMutableBlockIndex",
    "StaleSessionError",
    "UnknownEntityError",
    "UpdateDelta",
    "UpdateResult",
    "StreamReplay",
    "StreamTrainingError",
    "evaluate_retained_ids",
    "ground_truth_id_pairs",
    "interleave_profiles",
    "live_truth_id_pairs",
    "replay_stream",
    "split_bootstrap",
    "train_frozen_model",
]
