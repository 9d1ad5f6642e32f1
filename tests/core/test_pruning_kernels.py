"""Property tests: the pruning kernels equal the implementations they replaced.

Cardinality pruning used to push every pair through bounded priority queues
(Algorithms 4-5 as the paper writes them); it is now a sort and a rank cut
(``repro.core.pruning.kernels``).  The queue bodies live on in
``tests/reference.py`` and every mask must equal theirs bit for bit — for
the three algorithms' ``prune`` (valid pairs) and ``retain`` (every pair),
on unilateral (dirty) and bilateral (clean-clean) node spaces, with heavy weight ties,
pairs stored in arbitrary (registry) order, duplicate pairs, and every kind
of budget.  The weight-based algorithms are held to the ``np.add.at`` /
``np.maximum.at`` passes the same way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    reference_budget,
    reference_cardinality_prune,
    reference_node_averages,
    reference_node_maxima,
    reference_prune,
    tie_heavy_probabilities,
)
from repro.core.pruning import (
    CARDINALITY_BASED_ALGORITHMS,
    PRUNING_ALGORITHMS,
    BlockTotals,
    VALIDITY_THRESHOLD,
    get_pruning_algorithm,
    strength_order,
)
from repro.blocking import prepare_blocks
from repro.core.pruning.kernels import node_averages, node_maxima, top_k_per_node
from repro.datamodel import CandidateSet, EntityCollection, EntityIndexSpace, make_profile

pytestmark = pytest.mark.equivalence

SETTINGS = settings(max_examples=150, deadline=None)

#: few distinct levels on both sides of the validity threshold: ties abound,
#: and two copies of one pair can carry different weights
LEVELS = (0.0, 0.3, 0.5, 0.6, 0.6, 0.9, 0.9, 1.0)


@st.composite
def candidate_sets(draw, max_pairs=30):
    """Pairs over a dirty or clean-clean space, any order, duplicates allowed."""
    if draw(st.booleans()):
        first, second = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        space = EntityIndexSpace(first, second)
        universe = [(i, first + j) for i in range(first) for j in range(second)]
    else:
        nodes = draw(st.integers(2, 9))
        space = EntityIndexSpace(nodes)
        universe = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    pairs = draw(st.lists(st.sampled_from(universe), max_size=max_pairs))
    left = np.array([pair[0] for pair in pairs], dtype=np.int64)
    right = np.array([pair[1] for pair in pairs], dtype=np.int64)
    return CandidateSet(left, right, space)


@st.composite
def scored_candidates(draw):
    """A candidate set with tie-heavy weights in [0, 1], aligned by position."""
    candidates = draw(candidate_sets())
    if draw(st.booleans()):
        return candidates, tie_heavy_probabilities(candidates)
    weights = draw(
        st.lists(
            st.sampled_from(LEVELS), min_size=len(candidates), max_size=len(candidates)
        )
    )
    return candidates, np.array(weights, dtype=np.float64)


#: the two integers a derived budget reads
block_totals = st.builds(BlockTotals, st.integers(0, 80), st.integers(0, 12))


def budgets(candidates):
    """1, 2 and one no node's degree (nor the whole set) can reach."""
    return (1, 2, 2 * len(candidates) + 1)


@SETTINGS
@given(scored=scored_candidates(), totals=block_totals)
def test_supervised_cardinality_pruners_equal_the_queue_oracle(scored, totals):
    candidates, probabilities = scored
    for name in CARDINALITY_BASED_ALGORITHMS:
        for budget in budgets(candidates):
            ours = get_pruning_algorithm(name, budget=budget).prune(probabilities, candidates)
            theirs = reference_prune(name, probabilities, candidates, budget=budget)
            assert np.array_equal(ours, theirs), f"{name} k={budget}"
        derived = get_pruning_algorithm(name).prune(probabilities, candidates, totals)
        assert np.array_equal(
            derived, reference_prune(name, probabilities, candidates, blocks=totals)
        ), f"{name} {totals}"


@SETTINGS
@given(scored=scored_candidates(), totals=block_totals)
def test_cardinality_criteria_on_every_pair_equal_the_queue_oracle(scored, totals):
    candidates, weights = scored
    for name in ("CEP", "CNP", "RCNP"):
        for budget in budgets(candidates) + (None,):
            ours = get_pruning_algorithm(name, budget=budget).retain(weights, candidates, totals)
            theirs = reference_cardinality_prune(
                weights,
                candidates,
                reference_budget(name, totals) if budget is None else budget,
                per_node=name != "CEP",
                require_both=name == "RCNP",
            )
            assert np.array_equal(ours, theirs), f"{name} k={budget}"


@SETTINGS
@given(scored=scored_candidates(), totals=block_totals)
def test_prune_is_the_validity_threshold_then_retain(scored, totals):
    """``prune`` equals ``retain`` run on the valid pairs alone, scattered back."""
    candidates, probabilities = scored
    valid = np.flatnonzero(probabilities >= VALIDITY_THRESHOLD)
    for name in sorted(PRUNING_ALGORITHMS):
        algorithm = get_pruning_algorithm(name)
        expected = np.zeros(len(candidates), dtype=bool)
        expected[valid[algorithm.retain(probabilities[valid], candidates.subset(valid), totals)]] = True
        assert np.array_equal(algorithm.prune(probabilities, candidates, totals), expected), name


def test_cnp_ranks_a_dirty_node_by_strength_not_by_side():
    """The trap: in a dirty collection node 3 is the *left* endpoint of
    (3, 6) and the *right* endpoint of the stronger (1, 3).  Laying all left
    incidences out before all right ones and stable-sorting by node ranks a
    node's pairs by side, not by strength — node 3 would keep (3, 6).  No
    clean-clean input can tell the two layouts apart."""
    pairs = [(0, 2), (0, 6), (1, 6), (1, 3), (3, 6), (2, 6), (0, 3)]
    probabilities = np.array([0.6, 0.9, 0.9, 0.7, 0.6, 0.5, 0.5])
    candidates = CandidateSet(
        np.array([pair[0] for pair in pairs]),
        np.array([pair[1] for pair in pairs]),
        EntityIndexSpace(7),
    )
    expected = [True, True, True, True, False, False, False]
    mask = get_pruning_algorithm("CNP", budget=1).prune(probabilities, candidates)
    assert mask.tolist() == expected
    assert reference_prune("CNP", probabilities, candidates, budget=1).tolist() == expected
    in_left, in_right = top_k_per_node(
        candidates.left, candidates.right, probabilities, candidates.packed_keys(), 1
    )
    # (1, 3) is node 3's strongest pair, reached through its right side
    assert in_right[3] and not in_left[4]


@SETTINGS
@given(scored=scored_candidates())
def test_strength_order_is_weight_then_key_then_position(scored):
    candidates, weights = scored
    keys = candidates.packed_keys()
    expected = sorted(
        range(len(candidates)), key=lambda p: (-weights[p], int(keys[p]), p)
    )
    assert strength_order(weights, keys).tolist() == expected


@SETTINGS
@given(
    candidates=candidate_sets(max_pairs=60),
    data=st.data(),
)
def test_per_node_passes_equal_the_scatter_references(candidates, data):
    """Untied floats, so the order the sums accumulate in shows in the bits."""
    size = len(candidates)
    weights = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)),
        dtype=np.float64,
    )
    left, right, total = candidates.left, candidates.right, candidates.index_space.total
    assert np.array_equal(
        node_averages(left, right, weights, total),
        reference_node_averages(left, right, weights, total),
    )
    maxima = reference_node_maxima(left, right, weights, total)
    assert np.array_equal(node_maxima(left, right, weights, total), maxima)

    averages = reference_node_averages(left, right, weights, total)
    reaches_left, reaches_right = weights >= averages[left], weights >= averages[right]
    retain = {
        name: get_pruning_algorithm(name).retain(weights, candidates)
        for name in ("WNP", "RWNP", "BLAST")
    }
    assert np.array_equal(retain["WNP"], reaches_left | reaches_right)
    assert np.array_equal(retain["RWNP"], reaches_left & reaches_right)
    assert np.array_equal(retain["BLAST"], weights >= 0.35 * (maxima[left] + maxima[right]))
    for name in ("BCl", "WEP", "WNP", "RWNP", "BLAST"):
        assert np.array_equal(
            get_pruning_algorithm(name).prune(weights, candidates),
            reference_prune(name, weights, candidates),
        ), name


DEGENERATE = {
    "empty": ([], []),
    "all-invalid": ([(0, 2), (0, 3), (1, 3)], [0.1, 0.49, 0.0]),
    "one-valid": ([(0, 2), (0, 3), (1, 3)], [0.1, 0.5, 0.0]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
@pytest.mark.parametrize("bilateral", [False, True])
def test_degenerate_sets(case, bilateral):
    pairs, weights = DEGENERATE[case]
    space = EntityIndexSpace(2, 2) if bilateral else EntityIndexSpace(4)
    candidates = CandidateSet(
        np.array([pair[0] for pair in pairs], dtype=np.int64),
        np.array([pair[1] for pair in pairs], dtype=np.int64),
        space,
    )
    weights = np.array(weights, dtype=np.float64)
    totals = BlockTotals(6, 4)
    for name in sorted(PRUNING_ALGORITHMS):
        mask = get_pruning_algorithm(name).prune(weights, candidates, totals)
        assert mask.dtype == bool and mask.shape == weights.shape
        assert np.array_equal(mask, reference_prune(name, weights, candidates, totals)), name
        assert mask.sum() == (1 if case == "one-valid" else 0), name
    for name in CARDINALITY_BASED_ALGORITHMS:
        mask = get_pruning_algorithm(name, budget=1).retain(weights, candidates)
        theirs = reference_cardinality_prune(
            weights, candidates, 1, per_node=name != "CEP", require_both=name == "RCNP"
        )
        assert mask.dtype == bool and np.array_equal(mask, theirs), name
    for name in ("BCl", "WEP", "WNP", "RWNP", "BLAST"):
        mask = get_pruning_algorithm(name).retain(weights, candidates)
        assert mask.dtype == bool and mask.shape == weights.shape, name


#: a small vocabulary (stop-words included) so random texts collide heavily
WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)


@st.composite
def collections(draw, name, min_entities=1, max_entities=10):
    rows = [
        draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=6))
        for _ in range(draw(st.integers(min_entities, max_entities)))
    ]
    profiles = [
        make_profile(f"{name}-{position}", text=" ".join(row))
        for position, row in enumerate(rows)
    ]
    return EntityCollection(profiles, name=name)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    first=collections("first", min_entities=3, max_entities=12),
    second=st.one_of(st.none(), collections("second", max_entities=8)),
    seed=st.integers(0, 2**16),
)
def test_all_pruning_algorithms_bit_identical(first, second, seed):
    """Every algorithm's mask on prepared blocks equals its reference's.

    The candidates come in canonical order and in a shuffled (registry-like)
    one; a cardinality algorithm derives the same budget from the block
    collection as from its two totals, and with neither refuses by name.
    """
    prepared = prepare_blocks(first, second)
    if len(prepared.candidates) == 0:
        return
    shuffle = np.random.default_rng(seed).permutation(len(prepared.candidates))
    for candidates in (prepared.candidates, prepared.candidates.subset(shuffle)):
        probabilities = tie_heavy_probabilities(candidates)
        for name in sorted(PRUNING_ALGORITHMS):
            mask = get_pruning_algorithm(name).prune(
                probabilities, candidates, prepared.blocks
            )
            assert np.array_equal(
                mask, reference_prune(name, probabilities, candidates, prepared.blocks)
            ), f"{name} mask differs"
            if name not in CARDINALITY_BASED_ALGORITHMS:
                continue
            totals = BlockTotals.of(prepared.blocks)
            assert np.array_equal(
                get_pruning_algorithm(name).prune(probabilities, candidates, totals), mask
            )
            assert np.array_equal(
                get_pruning_algorithm(name, budget=2).prune(probabilities, candidates),
                reference_prune(name, probabilities, candidates, budget=2),
            )
            symbol = "K" if name == "CEP" else "k"
            with pytest.raises(
                ValueError,
                match=f"^{name} needs the block collection to derive its budget {symbol}$",
            ):
                get_pruning_algorithm(name).prune(probabilities, candidates, None)
