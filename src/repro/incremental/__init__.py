"""Incremental streaming meta-blocking.

The batch pipeline (:mod:`repro.core`) recomputes blocking, feature
generation, scoring and pruning from scratch on every run.  This subsystem
provides the streaming execution mode: entities are inserted one at a time,
each insert costs work proportional to its candidate delta, and a frozen
batch-trained classifier serves online match decisions.

* :class:`MutableBlockIndex` — the incrementally maintained token/block
  inverted index and entity x block CSR incidence structure, fully dynamic:
  per-entity inserts, removals (:meth:`MutableBlockIndex.remove_entity`),
  in-place updates and one-pass bulk loads
  (:meth:`MutableBlockIndex.add_entities_bulk`);
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
    IncrementalStatistics,
    InsertDelta,
    MutableBlockIndex,
    RetractionDelta,
    UnknownEntityError,
    UpdateDelta,
)
from .sharded import ShardedMutableBlockIndex, ShardedStatistics
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
    "IncrementalStatistics",
    "InsertDelta",
    "InsertResult",
    "MatchingSession",
    "MutableBlockIndex",
    "OnlinePruningPolicy",
    "OnlineTopK",
    "OnlineWEP",
    "RemovalResult",
    "RetractionDelta",
    "SessionResult",
    "ShardedMutableBlockIndex",
    "ShardedStatistics",
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
