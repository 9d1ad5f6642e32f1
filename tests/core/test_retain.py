"""Unsupervised Meta-blocking: a pruning algorithm's criterion on every pair.

A pruning algorithm needs one score per pair.  ``prune`` takes a classifier's
probabilities and keeps only the valid pairs (0.5 or above) before applying
the criterion; ``retain`` applies the same criterion to every pair it is
handed, so given a weighting scheme's values it is the classic, unsupervised
Meta-blocking of Papadakis et al.  Its weights need not lie in [0, 1].
"""

import numpy as np
import pytest

from repro.core.pruning import PRUNING_ALGORITHMS, get_pruning_algorithm
from repro.evaluation import evaluate_candidates, evaluate_retained_mask
from repro.weights import get_scheme

pytestmark = pytest.mark.equivalence

#: every algorithm, with an explicit budget where one applies
ALGORITHMS = [
    ("BCl", {}),
    ("WEP", {}),
    ("WNP", {}),
    ("RWNP", {}),
    ("BLAST", {}),
    ("CEP", {"budget": 5}),
    ("CNP", {"budget": 2}),
    ("RCNP", {"budget": 2}),
]


def _weights(scheme, candidates, stats):
    return get_scheme(scheme).compute(candidates, stats)[:, 0]


def test_every_algorithm_is_covered():
    assert sorted(name for name, _ in ALGORITHMS) == sorted(PRUNING_ALGORITHMS)


@pytest.mark.parametrize("name,kwargs", ALGORITHMS, ids=[name for name, _ in ALGORITHMS])
def test_masks_align_with_the_pairs(small_blocks, small_candidates, small_stats, name, kwargs):
    weights = _weights("JS", small_candidates, small_stats)
    mask = get_pruning_algorithm(name, **kwargs).retain(weights, small_candidates, small_blocks)
    assert mask.shape == (len(small_candidates),)
    assert mask.dtype == bool


def test_cbs_weights_are_the_common_block_counts(small_candidates, small_stats):
    # alpha = {0, 1} x {3}, beta = {0} x {3, 4}, gamma = {1, 2} x {4, 5}, delta = {2} x {5}
    shared = {(0, 3): 2, (0, 4): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (2, 4): 1, (2, 5): 2}
    weights = _weights("CBS", small_candidates, small_stats)
    pairs = zip(small_candidates.left.tolist(), small_candidates.right.tolist())
    assert dict(zip(pairs, weights.tolist())) == shared


def test_wep_keeps_the_pairs_at_or_above_the_average(small_candidates, small_stats):
    weights = _weights("CBS", small_candidates, small_stats)
    # common block counts reach 2: no [0, 1] range check, no validity threshold
    assert weights.max() > 1.0
    mask = get_pruning_algorithm("WEP").retain(weights, small_candidates)
    assert np.array_equal(mask, weights >= weights.mean())


def test_rwnp_retains_a_subset_of_wnp(small_candidates, small_stats):
    weights = _weights("JS", small_candidates, small_stats)
    wnp = get_pruning_algorithm("WNP").retain(weights, small_candidates)
    rwnp = get_pruning_algorithm("RWNP").retain(weights, small_candidates)
    assert np.all(~rwnp | wnp)


def test_rcnp_retains_a_subset_of_cnp(small_candidates, small_stats):
    weights = _weights("JS", small_candidates, small_stats)
    cnp = get_pruning_algorithm("CNP", budget=1).retain(weights, small_candidates)
    rcnp = get_pruning_algorithm("RCNP", budget=1).retain(weights, small_candidates)
    assert np.all(~rcnp | cnp)


def test_cep_keeps_its_explicit_budget(small_candidates, small_stats):
    weights = _weights("CBS", small_candidates, small_stats)
    assert get_pruning_algorithm("CEP", budget=3).retain(weights, small_candidates).sum() == 3


def test_cep_derives_its_budget_from_the_blocks_and_refuses_without(
    small_blocks, small_candidates, small_stats
):
    weights = _weights("CBS", small_candidates, small_stats)
    cep = get_pruning_algorithm("CEP")
    with pytest.raises(ValueError, match="^CEP needs the block collection to derive its budget K$"):
        cep.retain(weights, small_candidates)
    mask = cep.retain(weights, small_candidates, small_blocks)
    budget = max(1, small_blocks.total_block_assignments() // 2)
    assert mask.sum() == min(budget, len(small_candidates))


@pytest.mark.parametrize(
    "weights,message",
    [
        (np.zeros((2, 3)), "^weights must be a 1-D array$"),
        (np.zeros(2), "^expected 7 weights, got 2$"),
    ],
    ids=["two-dimensional", "misaligned"],
)
def test_weights_must_be_one_per_pair(small_candidates, weights, message):
    assert len(small_candidates) == 7
    with pytest.raises(ValueError, match=message):
        get_pruning_algorithm("WNP").retain(weights, small_candidates)


@pytest.mark.parametrize("scheme", ["CBS", "JS", "RACCB"])
def test_weighted_wnp_raises_precision_on_abtbuy(prepared_abtbuy, scheme):
    """Even with no labels at all, pruning raises precision over raw blocks."""
    prepared = prepared_abtbuy.prepared
    truth = prepared_abtbuy.ground_truth
    weights = _weights(scheme, prepared.candidates, prepared.statistics())
    mask = get_pruning_algorithm("WNP").retain(weights, prepared.candidates, prepared.blocks)
    report = evaluate_retained_mask(mask, truth.labels_for(prepared.candidates), len(truth))
    assert report.precision > evaluate_candidates(prepared.candidates, truth).precision
    assert report.recall > 0.5
