"""The reference implementations, reached by direct calls.

The library runs one implementation of each layer: ``compute_sparse`` for
the weighting schemes and the array engine for block preparation.  The
readable implementations they are checked against stay in ``src/`` under
their public names — the per-pair ``WeightingScheme.compute`` bodies and the
object chain ``BlockingMethod.build_blocks`` -> ``purge_oversized_blocks``
-> ``filter_blocks`` -> ``CandidateSet.from_blocks`` — but nothing in the
library selects them.  The two helpers below assemble those public calls
into the shapes ``FeatureVectorGenerator.generate`` and ``prepare_blocks``
return, so an equivalence, golden or perf-smoke test compares like with like.

Pruning's references live here outright: the bounded-priority-queue bodies
of CEP / CNP / RCNP (Algorithms 4-5 as the paper writes them, one push per
pair) and the ``np.add.at`` / ``np.maximum.at`` per-node passes, which the
library replaced with the array kernels of ``repro.core.pruning.kernels``.
So do tokenisation's: the regular expression ``repro.utils.text.tokens``
replaced with a byte table, and the per-token ``dict.setdefault`` loop
``repro.blocking.arrayops.encode_signatures`` replaced with ``map``.  And the
generators' token draw: Zipf weights rebuilt per call and handed to
``Generator.choice``, which ``Vocabulary.sample_tokens`` replaced with one
cumulative distribution per vocabulary (:func:`reference_sample_tokens`).  And the
answer's row-major arithmetic: the gather / scatter masked ratio of JS / WJS /
NRS, the two-branch sigmoid and the ``(x - offset) / scale`` expression the
feature-major passes replaced bit for bit.  And checkpoint adoption's: the
slot-by-slot ``_apply_insert`` rebuild ``ShardReplica._adopt_state`` replaced
with run-wise bulk loads.  And the pair set no index stores any more: the
plain-Python pairs the writer's block member lists spawn
(:func:`member_pairs`).  And sharding's: K shard replicas following one
index's log, merged (:func:`merged_replicas`) — the construction the serving
fleet runs, held against the unsharded index.  Two devices ride along:
:func:`forced_cooccurrence_pass`, which makes the co-occurrence kernel take the
pass a test names so that its two passes can be held against each other, and
the deterministic frozen model of the online suites (:class:`FixedLogistic`,
:func:`make_frozen_model`, :func:`reference_retained`) — defined here, under
one importable module path, which is the row of the snapshot's model-class
registry (``repro.ml.state.MODEL_CLASSES``) the test suite adds for it.
"""

from __future__ import annotations

import re
import unicodedata
from contextlib import contextmanager
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

import repro.weights.sparse as sparse

from repro.blocking import (
    BlockingMethod,
    PreparedBlocks,
    TokenBlocking,
    filter_blocks,
    purge_oversized_blocks,
)
from repro.blocking.cleaning import NO_CLEANING, PAPER_CLEANING, BlockCleaning
from repro.core.features import FeatureMatrix, FeatureVectorGenerator
from repro.core.pruning import (
    VALIDITY_THRESHOLD,
    BlockTotals,
    cep_budget,
    cnp_budget,
    get_pruning_algorithm,
)
from repro.datamodel import CandidateSet, EntityCollection
from repro.datasets.vocabulary import COMMON_WORDS, Vocabulary
from repro.incremental import FrozenModel, MergedIndexView, MutableBlockIndex
from repro.incremental.sharded import shard_of_signature
from repro.ml.state import MODEL_CLASSES, RestorableClass
from repro.persistence.snapshot import compacted_from_state, row_signatures
from repro.serve.workers import ShardReplica
from repro.utils.pqueue import BoundedTopQueue
from repro.utils.text import STOP_WORDS
from repro.utils.timing import StageTimer
from repro.weights import RCNP_FEATURE_SET, BlockStatistics

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


@contextmanager
def forced_cooccurrence_pass(path):
    """Make ``compute_pair_cooccurrence``'s cost estimate always answer
    ``path`` — ``"reduce"`` or ``"pair-major"`` — where it has a choice."""
    if path == "reduce":
        patch = mock.patch.multiple(
            sparse, _MIN_BLOCK_MAJOR_ENTRIES=0, _BLOCK_MAJOR_UNIT_COST=0
        )
    else:
        patch = mock.patch.object(sparse, "_MIN_BLOCK_MAJOR_ENTRIES", 1 << 62)
    with patch:
        yield


def reference_tokens(
    text: str, min_length: int = 1, remove_stop_words: bool = False
) -> List[str]:
    """``repro.utils.text.tokens`` as a regular expression over the folded text."""
    folded = unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
    result = [
        token for token in _TOKEN_PATTERN.findall(folded.lower()) if len(token) >= min_length
    ]
    if remove_stop_words:
        result = [token for token in result if token not in STOP_WORDS]
    return result


def reference_encode_signatures(
    signature_lists: Sequence[Sequence[str]],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """``encode_signatures`` one token at a time: first-seen codes through
    ``dict.setdefault``, then remapped to sorted-vocabulary ranks."""
    code_of: Dict[str, int] = {}
    codes: List[int] = []
    for signatures in signature_lists:
        for signature in signatures:
            codes.append(code_of.setdefault(signature, len(code_of)))
    vocabulary = sorted(code_of)
    rank_of = {token: rank for rank, token in enumerate(vocabulary)}
    remap = np.array([rank_of[token] for token in code_of], dtype=np.int64)
    return (
        remap[np.array(codes, dtype=np.int64)],
        np.array([len(signatures) for signatures in signature_lists], dtype=np.int64),
        vocabulary,
    )


def reference_sample_tokens(
    vocabulary: Vocabulary, rng: np.random.Generator, count: int, with_common: bool = True
) -> List[str]:
    """``Vocabulary.sample_tokens`` as it drew per call: the Zipf weights rebuilt
    and handed to ``Generator.choice``, then the common-word swap."""
    if count <= 0:
        return []
    size = len(vocabulary.tokens)
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, vocabulary.zipf_exponent)
    weights /= weights.sum()
    indices = rng.choice(size, size=count, p=weights)
    sampled = [vocabulary.tokens[index] for index in indices]
    if with_common and count >= 2 and rng.random() < 0.5:
        sampled[rng.integers(0, count)] = COMMON_WORDS[rng.integers(0, len(COMMON_WORDS))]
    return sampled


def reference_feature_matrix(
    feature_set: Sequence[str], candidates: CandidateSet, stats: BlockStatistics
) -> FeatureMatrix:
    """The feature matrix of ``candidates`` from the per-pair ``compute`` bodies."""
    generator = FeatureVectorGenerator(feature_set)
    return FeatureMatrix(
        values=np.hstack([scheme.compute(candidates, stats) for scheme in generator.schemes]),
        columns=generator.columns,
        feature_set=generator.feature_set,
    )


def reference_masked_ratio(
    shared: np.ndarray, denominator: np.ndarray, common: np.ndarray
) -> np.ndarray:
    """JS / WJS / NRS as they divided: gather the defined pairs, scatter back."""
    values = np.zeros(shared.shape, dtype=np.float64)
    defined = (common > 0) & (denominator > 0)
    values[defined] = shared[defined] / denominator[defined]
    return values.reshape(-1, 1)


def reference_sigmoid(values: np.ndarray) -> np.ndarray:
    """The logistic function in its two-branch, two-mask form."""
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_vals = np.exp(values[~positive])
    out[~positive] = exp_vals / (1.0 + exp_vals)
    return out


def reference_prepare_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    blocking: Optional[BlockingMethod] = None,
    purging_fraction: float = 0.5,
    filtering_ratio: float = 0.8,
    apply_purging: bool = True,
    apply_filtering: bool = True,
) -> PreparedBlocks:
    """``prepare_blocks`` on the object chain (same toggles, same stage names).

    No CSR is handed over: statistics built from the result derive it from
    the block objects.
    """
    method = blocking if blocking is not None else TokenBlocking()
    timer = StageTimer()
    with timer.stage("blocking"):
        raw = method.build_blocks(first, second).without_empty_blocks()
    with timer.stage("purging"):
        purged = purge_oversized_blocks(raw, purging_fraction) if apply_purging else raw
    with timer.stage("filtering"):
        filtered = filter_blocks(purged, filtering_ratio) if apply_filtering else purged
    with timer.stage("candidate-extraction"):
        candidates = CandidateSet.from_blocks(filtered)
    return PreparedBlocks(
        raw_blocks=raw,
        purged_blocks=purged,
        blocks=filtered,
        candidates=candidates,
        timer=timer,
    )


def tie_heavy_probabilities(candidates: CandidateSet) -> np.ndarray:
    """Deterministic pseudo-probabilities quantised into heavy ties.

    Quantisation forces many exact probability ties, so any sensitivity to
    storage order in the tie-breaking of the cardinality algorithms would
    surface as a mask difference.
    """
    keys = candidates.packed_keys()
    raw = (keys * np.int64(2654435761)) % np.int64(1000)
    return np.round(raw / 999.0, 1)


def reference_cardinality_prune(
    weights: np.ndarray,
    candidates: CandidateSet,
    budget: int,
    per_node: bool,
    require_both: bool = False,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """CEP (``per_node=False``) or CNP / RCNP on bounded priority queues.

    ``positions`` are the pairs that compete, in push order: the valid ones
    for the supervised algorithms, every edge (the default) for the
    unsupervised.  Ties resolve by packed key, then by push order.
    """
    if positions is None:
        positions = np.arange(len(candidates))
    keys = candidates.packed_keys()
    mask = np.zeros(len(candidates), dtype=bool)
    if not per_node:
        if positions.size <= budget:
            mask[positions] = True
            return mask
        queue: BoundedTopQueue[int] = BoundedTopQueue(budget)
        for position in positions:
            queue.push(float(weights[position]), int(position), key=int(keys[position]))
        mask[np.array(queue.items(), dtype=np.int64)] = True
        return mask

    queues: Dict[int, BoundedTopQueue[int]] = {}
    for position in positions:
        weight = float(weights[position])
        key = int(keys[position])
        for node in (int(candidates.left[position]), int(candidates.right[position])):
            queue = queues.get(node)
            if queue is None:
                queue = BoundedTopQueue(budget)
                queues[node] = queue
            queue.push(weight, int(position), key=key)
    retained_per_node = {node: set(queue.items()) for node, queue in queues.items()}
    for position in positions:
        left = int(candidates.left[position])
        right = int(candidates.right[position])
        in_left = int(position) in retained_per_node.get(left, ())
        in_right = int(position) in retained_per_node.get(right, ())
        mask[position] = (in_left and in_right) if require_both else (in_left or in_right)
    return mask


def reference_node_averages(
    left: np.ndarray, right: np.ndarray, weights: np.ndarray, total_nodes: int
) -> np.ndarray:
    """Per-node average weight, accumulated with ``np.add.at`` left then right."""
    sums = np.zeros(total_nodes, dtype=np.float64)
    counts = np.zeros(total_nodes, dtype=np.int64)
    np.add.at(sums, left, weights)
    np.add.at(counts, left, 1)
    np.add.at(sums, right, weights)
    np.add.at(counts, right, 1)
    averages = np.full(total_nodes, np.inf, dtype=np.float64)
    populated = counts > 0
    averages[populated] = sums[populated] / counts[populated]
    return averages


def reference_node_maxima(
    left: np.ndarray, right: np.ndarray, weights: np.ndarray, total_nodes: int
) -> np.ndarray:
    """Per-node maximum weight (zero where a node has no pair)."""
    maxima = np.zeros(total_nodes, dtype=np.float64)
    np.maximum.at(maxima, left, weights)
    np.maximum.at(maxima, right, weights)
    return maxima


def reference_prune(
    name: str,
    probabilities: np.ndarray,
    candidates: CandidateSet,
    blocks=None,
    budget: Optional[int] = None,
) -> np.ndarray:
    """The retained mask of supervised algorithm ``name``, the long way round.

    Full-length thresholds, the validity mask applied last, queues for the
    cardinality algorithms — the bodies the library ran before the kernels.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    valid = probabilities >= VALIDITY_THRESHOLD
    left, right = candidates.left, candidates.right
    total_nodes = candidates.index_space.total
    if name == "BCl":
        return valid
    if name == "WEP":
        return valid & (probabilities >= probabilities[valid].mean()) if valid.any() else valid
    if name in ("WNP", "RWNP"):
        averages = reference_node_averages(
            left[valid], right[valid], probabilities[valid], total_nodes
        )
        reaches_left = probabilities >= averages[left]
        reaches_right = probabilities >= averages[right]
        if name == "RWNP":
            return valid & reaches_left & reaches_right
        return valid & (reaches_left | reaches_right)
    if name == "BLAST":
        maxima = reference_node_maxima(
            left[valid], right[valid], probabilities[valid], total_nodes
        )
        return valid & (probabilities >= 0.35 * (maxima[left] + maxima[right]))
    if budget is None:
        budget = (cep_budget if name == "CEP" else cnp_budget)(BlockTotals.of(blocks))
    return reference_cardinality_prune(
        probabilities,
        candidates,
        budget,
        per_node=name != "CEP",
        require_both=name == "RCNP",
        positions=np.flatnonzero(valid),
    )


class FixedLogistic:
    """A deterministic frozen 'classifier': logistic over fixed linspace weights.

    Probabilities are rounded, so two engines whose feature sums differ in
    the last float ulp — streaming and batch, a replayed session and the
    original run, daemon, replicas and the offline reference — score every
    pair with bit-identical values without training anything.
    """

    def __init__(self, n_features: int) -> None:
        self.n_features = n_features
        self._weights = np.linspace(-1.0, 1.0, n_features)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        z = np.clip(features @ self._weights, -30.0, 30.0)
        return np.round(1.0 / (1.0 + np.exp(-z)), 9)


# sessions of the online suites checkpoint and recover this model
MODEL_CLASSES.setdefault(
    "FixedLogistic", RestorableClass(__name__, ("n_features",), ("_weights",))
)


def make_frozen_model(
    feature_set: Sequence[str] = RCNP_FEATURE_SET, cleaning: BlockCleaning = NO_CLEANING
) -> FrozenModel:
    """A deterministic frozen model over ``feature_set`` (RCNP's by default)
    whose answers read the live blocks under ``cleaning`` (none by default)."""
    width = FeatureVectorGenerator(feature_set).columns
    return FrozenModel(
        classifier=FixedLogistic(len(width)),
        scaler=None,
        feature_set=feature_set,
        cleaning=cleaning,
    )


#: the two questions an exact answer is held to: raw blocks, and the
#: paper's pipeline (``prepare_blocks``' defaults) — name -> the model's
#: cleaning, whose ``prepare_arguments()`` the batch oracle runs
CLEANINGS = {"raw": NO_CLEANING, "paper": PAPER_CLEANING}


def batch_retained_ids(blocks, candidates, model, pruning, id_of) -> set:
    """The pairs the batch pipeline retains — ``model`` scoring the features
    of ``candidates`` over ``blocks``, ``pruning`` — as entity-id frozensets."""
    stats = BlockStatistics(blocks)
    matrix = FeatureVectorGenerator(model.feature_set).generate(candidates, stats)
    probabilities = model.score(matrix.values)
    mask = get_pruning_algorithm(pruning).prune(probabilities, candidates, blocks)
    return {
        frozenset((id_of(int(i)), id_of(int(j))))
        for i, j in zip(candidates.left[mask], candidates.right[mask])
    }


def reference_retained(session):
    """A session's retained set in the serve ``match`` response shape:
    ``[[id_a, id_b, probability], ...]`` sorted by id pair."""
    result = session.retained()
    probabilities = result.probabilities[result.retained_mask]
    return sorted(
        [id_a, id_b, float(probability)]
        for (id_a, id_b), probability in zip(result.retained_ids, probabilities)
    )


def reference_adopted_index(state, shard: int, num_shards: int) -> MutableBlockIndex:
    """Shard ``shard`` of a checkpoint ``state``, rebuilt slot by slot.

    The body ``ShardReplica._adopt_state`` ran before it loaded maximal
    same-side runs in bulk: every slot in id order, live ones through
    ``_apply_insert`` with their signatures shard-filtered one by one, dead
    ones through ``_register_tombstone``.
    """
    index_state = compacted_from_state(state["index"])
    rows = row_signatures(index_state)
    index = MutableBlockIndex(bilateral=bool(index_state["bilateral"]))
    # the live rows are the slots of each side in slot order
    next_row = {0: 0, 1: int(index_state["side_counts"][0])}
    for side in state["slots"].tolist():
        if side < 0:
            index._register_tombstone()
            continue
        row = next_row[side]
        next_row[side] += 1
        entity_id, signatures = index_state["entity_ids"][row], rows[row]
        index._apply_insert(
            entity_id,
            side,
            [
                signature
                for signature in signatures
                if shard_of_signature(signature, num_shards) == shard
            ],
        )
    return index


def member_pairs(shards) -> set:
    """Plain-Python union of the raw ``(left, right)`` pairs the block member
    lists of ``shards`` spawn: first x second in a bilateral index, every two
    members otherwise."""
    pairs = set()
    for shard in shards:
        for first, second in zip(shard._members_first, shard._members_second):
            spawned = (
                ((a, b) for a in first for b in second)
                if shard.bilateral
                else combinations(first, 2)
            )
            pairs.update((min(a, b), max(a, b)) for a, b in spawned)
    return pairs


def merged_replicas(wal, authority, num_shards: int) -> Tuple[MergedIndexView, List[ShardReplica]]:
    """``num_shards`` shard replicas of the log ``wal`` — which ``authority``
    journals to — caught up to its end, read as one index.

    Fresh replicas adopt the newest checkpoint in the log's directory (or
    replay from the ``meta`` record) and the tail behind it, as a serving
    worker does.  Returns the merged view, entity ids resolved by the
    authority, and the replicas, which the caller closes.
    """
    replicas = [ShardReplica(wal.path, shard, num_shards) for shard in range(num_shards)]
    for replica in replicas:
        replica.catch_up(wal.log_offset)
    return MergedIndexView([replica.index for replica in replicas], authority.entity_id), replicas
