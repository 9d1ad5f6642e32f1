"""Sharded block preparation (the ``workers > 1`` blocking path).

The array engine (:func:`repro.blocking.arrayops.prepare_blocks_array`) runs
block preparation as four stages; given an executor it takes the two that
dominate its profile from this module and keeps the rest as the same
single-pass array code:

* **tokenization** — the :class:`~repro.parallel.planner.ShardPlanner`
  hash-partitions the profiles into K shards (stable global node ids),
  workers tokenize their shard and encode it with the serial engine's own
  kernel (:func:`repro.blocking.arrayops.encode_signatures`), and the
  parent merges the per-shard token streams: shard vocabularies are unioned
  into the global sorted vocabulary, shard codes remapped to global ranks,
  and the concatenated ``(code, node)`` stream handed back to
  :func:`repro.blocking.arrayops.assemble_from_codes` — whose packed-key
  sorted dedup makes the result independent of the partitioning, i.e.
  bit-identical to single-pass assembly;
* **candidate extraction** — the per-membership expansion plan
  (:func:`repro.pairs.pair_expansion_plan`) is computed once,
  the flat membership arrays are published to shared memory, and workers
  expand disjoint membership ranges into locally-deduplicated packed pair
  keys; the parent folds the per-worker key sets with two-way sorted merges.
  The distinct pair *set* of any contiguous partitioning is the same, so
  the merged keys equal the serial extraction's output array exactly.

Block Purging and Block Filtering remain single-pass array code: they are a
handful of ``bincount`` passes and one ``argsort`` over the memberships —
memory-bandwidth bound and a rounding error in the stage profile.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..blocking.arrayops import DEFAULT_PAIR_CHUNK_KEYS, MembershipMatrix
from ..blocking.base import BlockingMethod
from ..datamodel.entity import EntityCollection
from ..pairs import merge_sorted_unique, pair_expansion_plan
from .executor import ParallelExecutor
from .planner import ShardPlanner
from .worker import candidate_chunk, tokenize_shard


def dictionary_encode_sharded(
    method: BlockingMethod,
    first: EntityCollection,
    second: Optional[EntityCollection],
    executor: ParallelExecutor,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Sharded tokenization: the ``(codes, nodes, vocabulary)`` stream of
    :func:`repro.blocking.arrayops._dictionary_encode`, up to entry order."""
    planner = ShardPlanner(executor.workers)
    shards = planner.plan(first, second)
    results = executor.starmap(
        tokenize_shard, [(shard.profiles, method) for shard in shards]
    )

    # merge the shard vocabularies into the global sorted vocabulary
    vocabulary = sorted(set().union(*(vocab for _, _, vocab in results))) if results else []
    rank_of = dict(zip(vocabulary, range(len(vocabulary))))

    code_parts: List[np.ndarray] = []
    node_parts: List[np.ndarray] = []
    for shard, (codes, lengths, vocab) in zip(shards, results):
        if codes.size == 0:
            continue
        remap = np.fromiter(map(rank_of.__getitem__, vocab), np.int64, len(vocab))
        code_parts.append(remap[codes])
        node_parts.append(np.repeat(shard.nodes, lengths))
    codes = np.concatenate(code_parts) if code_parts else np.empty(0, dtype=np.int64)
    nodes = np.concatenate(node_parts) if node_parts else np.empty(0, dtype=np.int64)
    return codes, nodes, vocabulary


def extract_candidate_keys_sharded(
    matrix: MembershipMatrix,
    executor: ParallelExecutor,
    chunk_keys: int = DEFAULT_PAIR_CHUNK_KEYS,
) -> np.ndarray:
    """Sharded candidate extraction: same distinct packed keys as the serial pass."""
    total = int(max(matrix.index_space.total, 1))
    n_memberships = matrix.nodes.size
    if n_memberships == 0 or matrix.num_blocks == 0:
        return np.empty(0, dtype=np.int64)

    repeats, right_begin, pair_offsets = pair_expansion_plan(
        matrix.block_of, matrix.block_sizes(), matrix.first_side_sizes()
    )
    total_pairs = int(pair_offsets[-1])
    if total_pairs == 0:
        return np.empty(0, dtype=np.int64)

    nodes_h = executor.publish(matrix.nodes)
    repeats_h = executor.publish(repeats)
    right_begin_h = executor.publish(right_begin)
    offsets_h = executor.publish(pair_offsets)

    # membership ranges balanced by pair count, not membership count
    quantiles = np.linspace(0, total_pairs, executor.workers + 1)
    bounds = np.searchsorted(pair_offsets, quantiles, side="left")
    bounds[0], bounds[-1] = 0, n_memberships
    tasks = [
        (nodes_h, repeats_h, right_begin_h, offsets_h, int(start), int(stop), total, chunk_keys)
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    parts = executor.starmap(candidate_chunk, tasks)

    seen: np.ndarray = np.empty(0, dtype=np.int64)
    for part in parts:
        seen = merge_sorted_unique(seen, part)
    return seen
