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
* :class:`MergedIndexView` — K signature shards read as one index: the
  states of the serving daemon's shard replicas, each following the
  write-ahead log with its signatures filtered by
  :func:`~repro.incremental.sharded.shard_of_signature`;
* :class:`DeltaFeatureGenerator` — weighting-scheme feature vectors for the
  candidate delta of an insert, reusing the vectorized weighting kernels;
* :class:`MatchingSession` — the online facade: frozen classifier, per-insert
  scored matches under running WEP/top-K thresholds (both retraction-aware),
  and an exact batch-equivalent :meth:`MatchingSession.retained`
  finalisation covering *every* pruning algorithm, cardinality-based ones
  included.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BulkInsertDelta": "index",
    "BulkInsertResult": "session",
    "DeltaFeatureGenerator": "delta",
    "DuplicateEntityError": "index",
    "FrozenModel": "session",
    "IndexState": "state",
    "IndexStatistics": "state",
    "InsertDelta": "index",
    "InsertResult": "session",
    "LiveCandidates": "state",
    "MatchingSession": "session",
    "MergedIndexView": "sharded",
    "MutableBlockIndex": "index",
    "OnlinePruningPolicy": "session",
    "OnlineTopK": "session",
    "OnlineWEP": "session",
    "RemovalResult": "session",
    "RetractionDelta": "index",
    "SessionResult": "session",
    "StaleSessionError": "session",
    "UnknownEntityError": "index",
    "UpdateDelta": "index",
    "UpdateResult": "session",
    "StreamReplay": "stream",
    "StreamTrainingError": "stream",
    "evaluate_retained_ids": "stream",
    "ground_truth_id_pairs": "stream",
    "interleave_profiles": "stream",
    "live_truth_id_pairs": "stream",
    "replay_stream": "stream",
    "split_bootstrap": "stream",
    "train_frozen_model": "stream",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
