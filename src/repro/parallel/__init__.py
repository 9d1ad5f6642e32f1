"""Sharded multiprocess execution engine.

The batch pipeline and the streaming index are single-process by default;
this subsystem shards their hot stages across worker processes behind the
``workers`` knob (``prepare_blocks``, ``generate_features``, the pipeline,
``ExperimentConfig.workers``, CLI ``--workers``):

* :class:`ShardPlanner` — stable hash-partitioning of entity profiles (and
  signatures) into K shards with global node ids;
* :class:`ParallelExecutor` — the worker pool plus its registry of
  ``multiprocessing.shared_memory``-backed NumPy inputs and outputs
  (CSR buffers are shared read-only with workers; per-pair aggregates are
  written into shared buffers at disjoint offsets — nothing per-pair ever
  crosses a process boundary through pickle);
* :mod:`repro.parallel.blocking` — sharded tokenization/assembly and
  candidate extraction, merged with packed-key sorted merges;
* :mod:`repro.parallel.features` — the pair co-occurrence pass over
  candidate-row ranges, reusing the :mod:`repro.weights.sparse` kernel
  unchanged.

Pruning is not fanned out: every algorithm is a single array pass over the
valid pairs (:mod:`repro.core.pruning.kernels`), cheaper than publishing
its inputs to a pool.

``workers=1`` is the exact single-process path and stays the oracle: every
parallel stage is constructed to be *bit-identical* to it for any worker
count (set unions, per-pair-local aggregation), and the equivalence suite in ``tests/parallel/`` asserts it
for blocks, candidate sets and all feature schemes.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "EntityShard": "planner",
    "ParallelExecutor": "executor",
    "ShardPlanner": "planner",
    "SharedArray": "shm",
    "SharedArrayHandle": "shm",
    "WORKERS_AUTO": "executor",
    "WorkerCrashError": "executor",
    "attach_view": "shm",
    "detach_view": "shm",
    "dictionary_encode_sharded": "blocking",
    "extract_candidate_keys_sharded": "blocking",
    "parallel_pair_cooccurrence": "features",
    "resolve_workers": "executor",
    "shard_of_signature": "planner",
    "split_ranges": "executor",
    "stable_hash": "planner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
