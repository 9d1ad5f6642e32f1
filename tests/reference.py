"""The reference implementations, reached by direct calls.

The library runs one implementation of each layer: ``WeightingScheme.compute``
for the weighting schemes and the array engine for block preparation.  The
weighting schemes' reference lives here outright: the paper's set formulas
(Section 4) evaluated pair by pair over each ``Block``'s member lists
(:func:`reference_block_sets`, :func:`reference_feature_matrix`) and LCP as
the walk over every block of every entity (:func:`reference_lcp`) — neither
reads the CSR or an array of ``BlockStatistics``, so a fault in building them
cannot hide in an equivalence test.  Block preparation's readable
implementation stays in ``src/`` under its public names — the object chain
``BlockingMethod.build_blocks`` -> ``purge_oversized_blocks`` ->
``filter_blocks`` -> ``CandidateSet.from_blocks`` — but nothing in the library
selects it; :func:`reference_prepare_blocks` assembles those calls into the
shape ``prepare_blocks`` returns, so an equivalence, golden or perf-smoke
test compares like with like.

Pruning's references live here too: the bounded priority queue
(:class:`BoundedTopQueue`) and the bodies of CEP / CNP / RCNP on it
(Algorithms 4-5 as the paper writes them, one push per pair) and the
``np.add.at`` / ``np.maximum.at`` per-node passes, which the library
replaced with the array kernels of ``repro.core.pruning.kernels``.
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
with run-wise bulk loads.  And bare-index recovery's replay of a log from its
``meta`` record, now the oracle a recovered session is held to
(:func:`reference_replay`).  And the pair set no index stores any more: the
plain-Python pairs the writer's block member lists spawn
(:func:`member_pairs`), and the raw block collection those lists hold
(:func:`reference_blocks`), which budgets and totals are checked against.
And sharding's: K shard replicas following one index's log, merged
(:func:`merged_replicas`) — the construction the serving fleet runs, held
against the unsharded index.  And ``top_k``'s subset path,
which selecting from the offset's exact read replaced: a node's
counterparts read off the cleaned CSR (:func:`reference_counterparts`) and
only those pairs scored (:func:`reference_top_k`).  Two devices ride along:
:func:`forced_cooccurrence_pass`, which makes the co-occurrence kernel take the
pass a test names so that its two passes can be held against each other, and
the deterministic frozen model of the online suites (:class:`FixedLogistic`,
:func:`make_frozen_model`, :func:`reference_retained`) — defined here, under
one importable module path, which is the row of the snapshot's model-class
registry (``repro.ml.state.MODEL_CLASSES``) the test suite adds for it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Generic, List, Optional, Sequence, Tuple, TypeVar
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
from repro.core.pruning import VALIDITY_THRESHOLD, get_pruning_algorithm, strength_order
from repro.datamodel import Block, BlockCollection, CandidateSet, EntityCollection
from repro.datasets.vocabulary import COMMON_WORDS, Vocabulary
from repro.incremental import (
    DeltaFeatureGenerator,
    FrozenModel,
    MergedIndexView,
    MutableBlockIndex,
)
from repro.incremental.sharded import shard_of_signature
from repro.ml.state import MODEL_CLASSES, RestorableClass
from repro.pairs import pack_pair_keys
from repro.persistence.snapshot import compacted_from_state, row_signatures
from repro.serve.workers import ShardReplica
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


@dataclass
class BlockSets:
    """The paper's notation read off each ``Block``'s member lists, block ids
    being positions: ``B_i`` per node, ``|b|`` and ``||b||`` per block."""

    #: ``B_i`` — the ids of the blocks whose member lists name node ``i``
    of_node: List[FrozenSet[int]]
    #: ``|b|`` — ``Block.size()``
    size: List[int]
    #: ``||b||`` — ``Block.cardinality()``
    cardinality: List[int]

    def entity_cardinality(self, ids) -> int:
        """``||e_i|| = Σ_{b ∈ ids} ||b||``."""
        return sum(self.cardinality[block] for block in ids)

    def inverse_cardinality(self, ids) -> float:
        """``Σ_{b ∈ ids} 1/||b||`` (a block spawning no comparison counts 1)."""
        return sum(1.0 / max(self.cardinality[block], 1) for block in ids)

    def inverse_size(self, ids) -> float:
        """``Σ_{b ∈ ids} 1/|b|``."""
        return sum(1.0 / max(self.size[block], 1) for block in ids)


def reference_block_sets(blocks: BlockCollection) -> BlockSets:
    """One pass over the blocks' member lists: no CSR, no statistics array."""
    of_node = [set() for _ in range(blocks.index_space.total)]
    size, cardinality = [], []
    for block_id, block in enumerate(blocks):
        for node in block.all_entities():
            of_node[node].add(block_id)
        size.append(block.size())
        cardinality.append(block.cardinality())
    return BlockSets([frozenset(ids) for ids in of_node], size, cardinality)


def reference_lcp(blocks: BlockCollection) -> np.ndarray:
    """``LCP(e_i)``, as the paper counts it: walk every block of every entity
    and collect the distinct entities it is compared with there — the other
    side of a bilateral block, the other members of a unilateral one."""
    neighbours = [set() for _ in range(blocks.index_space.total)]
    for block in blocks:
        if block.is_bilateral:
            for node in block.entities_first:
                neighbours[node].update(block.entities_second)
            for node in block.entities_second:
                neighbours[node].update(block.entities_first)
        else:
            for node in block.entities_first:
                neighbours[node].update(block.entities_first)
                neighbours[node].discard(node)
    return np.array([len(others) for others in neighbours], dtype=np.float64)


def _log_ratio(total: float, value: float) -> float:
    """``log(total / value)``, 0 unless the ratio is defined and exceeds 1."""
    ratio = total / value if value > 0 else 0.0
    return math.log(ratio) if ratio > 1.0 else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def reference_feature_matrix(
    feature_set: Sequence[str], candidates: CandidateSet, stats: BlockStatistics
) -> FeatureMatrix:
    """The feature matrix of ``candidates`` from the paper's set formulas
    (Section 4), pair by pair, over the member lists of ``stats.blocks``.

    Only ``stats.blocks`` is read: the CSR and the arrays of
    :class:`BlockStatistics` are what the library computes from, so a fault
    in building them shows up here as a difference.
    """
    generator = FeatureVectorGenerator(feature_set)
    sets = reference_block_sets(stats.blocks)
    num_blocks = len(sets.size)
    total_cardinality = sum(sets.cardinality)

    def jaccard(b_i, b_j):
        shared = len(b_i & b_j)
        return _ratio(shared, len(b_i) + len(b_j) - shared)

    def weighted_jaccard(inverse, b_i, b_j):
        shared = inverse(b_i & b_j)
        return _ratio(shared, inverse(b_i) + inverse(b_j) - shared)

    formulas = {
        "CBS": lambda b_i, b_j: len(b_i & b_j),
        "CF-IBF": lambda b_i, b_j: len(b_i & b_j)
        * _log_ratio(num_blocks, len(b_i))
        * _log_ratio(num_blocks, len(b_j)),
        "RACCB": lambda b_i, b_j: sets.inverse_cardinality(b_i & b_j),
        "JS": jaccard,
        "EJS": lambda b_i, b_j: jaccard(b_i, b_j)
        * _log_ratio(total_cardinality, sets.entity_cardinality(b_i))
        * _log_ratio(total_cardinality, sets.entity_cardinality(b_j)),
        "WJS": lambda b_i, b_j: weighted_jaccard(sets.inverse_cardinality, b_i, b_j),
        "RS": lambda b_i, b_j: sets.inverse_size(b_i & b_j),
        "NRS": lambda b_i, b_j: weighted_jaccard(sets.inverse_size, b_i, b_j),
    }
    pairs = pair_tuples(candidates)
    columns = []
    for scheme in generator.schemes:
        if scheme.name == "LCP":
            lcp = reference_lcp(stats.blocks)
            columns += [[lcp[i] for i, _ in pairs], [lcp[j] for _, j in pairs]]
        else:
            formula = formulas[scheme.name]
            columns.append([formula(sets.of_node[i], sets.of_node[j]) for i, j in pairs])
    return FeatureMatrix(
        values=np.array(columns, dtype=np.float64).reshape(len(columns), len(pairs)).T,
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


def pair_tuples(candidates: CandidateSet) -> List[Tuple[int, int]]:
    """Every candidate pair as a ``(left, right)`` tuple, in storage order."""
    return list(zip(candidates.left.tolist(), candidates.right.tolist()))


def tie_heavy_probabilities(candidates: CandidateSet) -> np.ndarray:
    """Deterministic pseudo-probabilities quantised into heavy ties.

    Quantisation forces many exact probability ties, so any sensitivity to
    storage order in the tie-breaking of the cardinality algorithms would
    surface as a mask difference.
    """
    keys = candidates.packed_keys()
    raw = (keys * np.int64(2654435761)) % np.int64(1000)
    return np.round(raw / 999.0, 1)


T = TypeVar("T")


class BoundedTopQueue(Generic[T]):
    """Keep the ``capacity`` items with the highest weights: the min-heap of
    bounded size Algorithms 4 and 5 of the paper run CEP and CNP / RCNP on.

    Pushing beyond capacity evicts the lowest-weighted element and exposes
    the new minimum as the admission threshold.  Ties are broken by the
    ``key`` given to :meth:`push` (smaller keys win); without explicit keys,
    by insertion order (earlier insertions win).  Either way the pruning is
    deterministic for equal weights.  Given the packed candidate key
    ``left * total + right``, the retained set is a pure function of the
    ``(weight, pair)`` multiset — independent of insertion order, and the set
    the batch kernels' (weight desc, key asc) sort selects.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: heap entries are ``(weight, -key, -seq, item)`` — the min-heap
        #: root is the worst retained entry: lowest weight, then largest
        #: tie key, then latest insertion
        self._heap: List[Tuple[float, int, int, T]] = []
        self._counter = itertools.count()

    @property
    def min_weight(self) -> float:
        """The lowest weight currently retained (0.0 when not yet full).

        This is the ``minp`` admission threshold of Algorithms 4/5: a new item
        is worth pushing only if its weight exceeds it once the queue is full.
        """
        if len(self._heap) < self.capacity:
            return 0.0
        return self._heap[0][0]

    def push(self, weight: float, item: T, key: Optional[int] = None) -> Optional[T]:
        """Insert ``item``; return the evicted item when capacity is exceeded.

        Parameters
        ----------
        weight:
            The item's weight; higher weights are retained preferentially.
        item:
            The payload (any value).
        key:
            Deterministic tie key: among equal weights, the entry with the
            *largest* key is evicted first, so smaller keys survive
            regardless of insertion order.  Defaults to the insertion
            counter, under which earlier insertions survive.
        """
        sequence = next(self._counter)
        entry = (weight, -(sequence if key is None else key), -sequence, item)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
            return None
        if entry <= self._heap[0]:
            return item
        return heapq.heappushpop(self._heap, entry)[3]

    def _ordered_entries(self) -> List[Tuple[float, int, int, T]]:
        """Retained entries strongest first: weight desc, then tie key asc."""
        return sorted(self._heap, key=lambda entry: (-entry[0], -entry[1], -entry[2]))

    def items(self) -> List[T]:
        """Return retained items ordered by decreasing weight."""
        return [entry[3] for entry in self._ordered_entries()]

    def weighted_items(self) -> List[Tuple[float, T]]:
        """Return (weight, item) tuples ordered by decreasing weight."""
        return [(entry[0], entry[3]) for entry in self._ordered_entries()]


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


def reference_budget(name: str, blocks) -> int:
    """CEP's K, or CNP's / RCNP's k, derived here rather than by the library.

    K = max(1, Σ|b| // 2) and k = max(1, round(Σ|b| / (|E1| + |E2|))), the
    budgets of the paper's Algorithms 4-5.  ``blocks`` is either the two
    integers of a ``BlockTotals``, used as they are, or a block collection:
    Σ|b| is then summed over each ``Block``'s member lists, counting only the
    blocks that spawn a comparison (both sides populated in Clean-Clean ER,
    two members in Dirty ER), and |E1| + |E2| is its index space.
    """
    if isinstance(blocks, BlockCollection):
        clean_clean = blocks.index_space.is_clean_clean
        assignments = sum(
            len(block.entities_first) + len(block.entities_second)
            for block in blocks
            if (
                block.entities_first and block.entities_second
                if clean_clean
                else len(block.entities_first) >= 2
            )
        )
        entities = blocks.index_space.total
    else:
        assignments, entities = blocks
    if name == "CEP":
        return max(1, assignments // 2)
    return max(1, round(assignments / entities)) if entities else 1


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
        budget = reference_budget(name, blocks)
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


def reference_replay(records: Sequence[Dict]) -> MutableBlockIndex:
    """A fresh index holding exactly the logged ``records``: the leading
    ``meta`` record names the topology, and every later record is applied
    through the index's ``_apply_*`` entry points with the signatures it
    carries — the logical record semantics alone, no snapshot, no session.

    The from-``meta`` replay bare-index recovery ran (``construct_index`` of
    the meta record, then ``apply_logged_record`` per record) before
    recovery went through session snapshots only."""
    meta, *rest = records
    assert meta["op"] == "meta"
    index = MutableBlockIndex(bilateral=meta["bilateral"], name=meta["name"])
    for record in rest:
        op = record["op"]
        if op == "add":
            index._apply_insert(record["id"], record["side"], record["sig"])
        elif op == "bulk":
            index._apply_bulk([tuple(entry) for entry in record["entities"]], record["side"])
        elif op == "remove":
            index.remove_entity(record["id"], side=record["side"])
        elif op == "update":
            index._apply_update(record["id"], record["side"], record["sig"])
        else:
            raise ValueError(f"unknown WAL record op {op!r}")
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


def reference_blocks(index) -> BlockCollection:
    """The comparison-spawning blocks of ``index`` as a batch collection, read
    off the writer's block member lists — not the CSR every read derives from.

    Node ids are the canonical batch ids (``canonical_node_ids``), so the
    collection matches the *raw* blocks the batch pipeline builds from the
    live entities in arrival order (before Block Purging and Block Filtering,
    which an exact answer applies at read time) — up to block order, which no
    downstream consumer depends on."""
    canonical = index.canonical_node_ids()
    blocks = []
    for block_id, key in enumerate(index._block_keys):
        if index._block_cardinalities[block_id] <= 0:
            continue
        blocks.append(
            Block(
                key=key,
                entities_first=sorted(
                    int(canonical[node]) for node in index._members_first[block_id]
                ),
                entities_second=sorted(
                    int(canonical[node]) for node in index._members_second[block_id]
                ),
            )
        )
    return BlockCollection(blocks, index.index_space(), name=index.name)


def merged_replicas(
    wal, authority, num_shards: int, adopt_floor: Optional[int] = None
) -> Tuple[MergedIndexView, List[ShardReplica]]:
    """``num_shards`` shard replicas of the log ``wal`` — which ``authority``
    journals to — caught up to its end, read as one index.

    Fresh replicas adopt the newest checkpoint in the log's directory (or
    replay from the ``meta`` record) and the tail behind it, as a serving
    worker does; given an ``adopt_floor`` — the floor checkpoint of a
    recovered authority — they adopt that checkpoint or a newer one and
    never replay from the log's start, as a recovered daemon's workers do.
    Returns the merged view, entity ids resolved by the authority, and the
    replicas, which the caller closes.
    """
    replicas = [
        ShardReplica(
            wal.path,
            shard,
            num_shards,
            adopt_floor=adopt_floor,
            allow_from_zero=adopt_floor is None,
        )
        for shard in range(num_shards)
    ]
    for replica in replicas:
        replica.catch_up(wal.log_offset)
    return MergedIndexView([replica.index for replica in replicas], authority.entity_id), replicas


def reference_counterparts(statistics, node: int) -> np.ndarray:
    """The live nodes ``node`` forms a candidate pair with in the collection
    ``statistics`` reads, ascending: whoever shares one of its blocks read (on
    the other side of a bilateral index, unless Block Filtering stranded the
    block with one side), read off the cleaned CSR; none for a removed node.

    The body ``IndexStatistics.counterparts`` ran when ``top_k`` scored its
    own subset of pairs."""
    state = statistics._states[0]
    sides = state.sides()
    side = int(sides[node])
    if side < 0:
        return np.empty(0, dtype=np.int64)
    csr = statistics._merged[0]
    row = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
    members = np.flatnonzero(np.isin(csr.indices, row))
    member_nodes = np.searchsorted(csr.indptr, members, side="right") - 1
    stranded_with = np.empty(0, dtype=np.int64)
    if state.bilateral:
        blocks = statistics._read[2]
        stranded = (blocks.first_sizes == blocks.sizes)[csr.indices[members]]
        stranded_with, member_nodes = member_nodes[stranded], member_nodes[~stranded]
    shares = np.zeros(sides.size, dtype=bool)
    shares[member_nodes] = True
    shares &= sides == 1 - side if state.bilateral else sides >= 0
    shares[stranded_with] = True
    shares[node] = False
    return np.flatnonzero(shares)


def reference_top_k(view, model, node: int, k: int) -> List[Dict]:
    """``top_k``'s answer the way it was computed before it selected from the
    offset's exact read: the node's :func:`reference_counterparts` in the
    collection read under the model's cleaning, only those pairs' features
    against the cleaned statistics, scored, ordered by probability desc and
    packed key asc."""
    statistics = view.statistics(model.cleaning)
    counterparts = reference_counterparts(statistics, node)
    if counterparts.size == 0:
        return []
    left, right = np.minimum(counterparts, node), np.maximum(counterparts, node)
    subset = CandidateSet(left, right, view.index_space())
    matrix = DeltaFeatureGenerator(view, model.feature_set).generate(subset, statistics)
    probabilities = model.score(matrix.values)
    order = strength_order(probabilities, pack_pair_keys(left, right))[:k]
    sides = view.sides()[counterparts[order]].tolist()
    return [
        {"entity_id": view.entity_id(counterpart), "side": side, "probability": probability}
        for counterpart, side, probability in zip(
            counterparts[order].tolist(), sides, probabilities[order].tolist()
        )
    ]
