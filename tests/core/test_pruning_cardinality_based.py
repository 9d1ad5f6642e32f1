"""Tests for the cardinality-based supervised pruning algorithms."""

import numpy as np
import pytest

from repro.core import (
    SupervisedCEP,
    SupervisedCNP,
    SupervisedRCNP,
    cep_budget,
    cnp_budget,
)
from repro.datamodel import Block, BlockCollection, CandidateSet, EntityIndexSpace


@pytest.fixture
def dense_candidates():
    """All 6 cross pairs of a 2x3 Clean-Clean space."""
    space = EntityIndexSpace(2, 3)
    pairs = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    return CandidateSet.from_pairs(pairs, space)


@pytest.fixture
def dense_blocks():
    space = EntityIndexSpace(2, 3)
    return BlockCollection(
        [Block("a", [0, 1], [2, 3]), Block("b", [0], [4]), Block("c", [1], [2, 3, 4])],
        space,
    )


class TestBudgets:
    def test_cep_budget_half_block_assignments(self, dense_blocks):
        # block sizes 4 + 2 + 4 = 10 -> K = 5
        assert cep_budget(dense_blocks) == 5

    @pytest.mark.parametrize(
        "sides, members, expected",
        [
            # 10 assignments over 5 entities -> k = 2
            ((2, 3), [([0, 1], [2, 3]), ([0], [4]), ([1], [2, 3, 4])], 2),
            # 7 assignments over 4 entities -> k = round(1.75) = 2; flooring gives 1
            ((2, 2), [([0, 1], [2, 3]), ([0], [2, 3])], 2),
        ],
        ids=["exact", "fractional"],
    )
    def test_cnp_budget_average_blocks_per_entity(self, sides, members, expected):
        blocks = BlockCollection(
            [Block(str(key), first, second) for key, (first, second) in enumerate(members)],
            EntityIndexSpace(*sides),
        )
        assert cnp_budget(blocks) == expected

    def test_budgets_at_least_one(self):
        space = EntityIndexSpace(2)
        empty = BlockCollection([], space)
        assert cep_budget(empty) == 1
        assert cnp_budget(empty) == 1


class TestCEP:
    def test_keeps_global_top_k(self, dense_candidates):
        probabilities = np.array([0.9, 0.8, 0.7, 0.6, 0.55, 0.3])
        mask = SupervisedCEP(budget=2).prune(probabilities, dense_candidates)
        assert mask.sum() == 2
        assert mask[np.argsort(probabilities)[-1]]
        assert mask[np.argsort(probabilities)[-2]]

    def test_discards_invalid_even_within_budget(self, dense_candidates):
        probabilities = np.array([0.9, 0.4, 0.3, 0.2, 0.1, 0.05])
        mask = SupervisedCEP(budget=4).prune(probabilities, dense_candidates)
        assert mask.sum() == 1  # only one valid pair exists

    def test_budget_derived_from_blocks(self, dense_candidates, dense_blocks):
        probabilities = np.full(6, 0.9)
        mask = SupervisedCEP().prune(probabilities, dense_candidates, dense_blocks)
        assert mask.sum() == cep_budget(dense_blocks)

    def test_missing_blocks_raises(self, dense_candidates):
        with pytest.raises(ValueError):
            SupervisedCEP().prune(np.full(6, 0.9), dense_candidates)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SupervisedCEP(budget=0)


class TestCNP:
    def test_per_entity_top_k_or_semantics(self, dense_candidates):
        # probabilities ordered by pair (0,2),(0,3),(0,4),(1,2),(1,3),(1,4)
        probabilities = np.array([0.95, 0.9, 0.85, 0.6, 0.55, 0.8])
        mask = SupervisedCNP(budget=1).prune(probabilities, dense_candidates)
        # entity 0 keeps (0,2); entity 1 keeps (1,4); entities 2,3,4 keep their best:
        # node 2 best = (0,2); node 3 best = (0,3); node 4 best = (0,4)
        expected = {(0, 2), (0, 3), (0, 4), (1, 4)}
        retained = {
            (pair.left, pair.right)
            for pair in map(dense_candidates.pair_at, np.flatnonzero(mask))
        }
        assert retained == expected

    def test_rcnp_and_semantics_prunes_deeper(self, dense_candidates):
        probabilities = np.array([0.95, 0.9, 0.85, 0.6, 0.55, 0.8])
        cnp = SupervisedCNP(budget=1).prune(probabilities, dense_candidates)
        rcnp = SupervisedRCNP(budget=1).prune(probabilities, dense_candidates)
        assert np.all(~rcnp | cnp)  # RCNP retains a subset of CNP
        retained = {
            (pair.left, pair.right)
            for pair in map(dense_candidates.pair_at, np.flatnonzero(rcnp))
        }
        # only (0,2) is the top pair of both of its entities
        assert retained == {(0, 2)}

    def test_invalid_pairs_never_retained(self, dense_candidates):
        probabilities = np.array([0.95, 0.45, 0.85, 0.3, 0.55, 0.2])
        mask = SupervisedCNP(budget=3).prune(probabilities, dense_candidates)
        assert not mask[1] and not mask[3] and not mask[5]

    def test_budget_from_blocks(self, dense_candidates, dense_blocks):
        probabilities = np.full(6, 0.9)
        mask = SupervisedCNP().prune(probabilities, dense_candidates, dense_blocks)
        assert mask.sum() >= 1

    def test_missing_blocks_raises(self, dense_candidates):
        with pytest.raises(ValueError):
            SupervisedCNP().prune(np.full(6, 0.9), dense_candidates)

    def test_large_budget_keeps_all_valid(self, dense_candidates):
        probabilities = np.array([0.9, 0.8, 0.7, 0.6, 0.55, 0.3])
        mask = SupervisedCNP(budget=10).prune(probabilities, dense_candidates)
        assert mask.sum() == 5  # every valid pair retained


class TestRelativeBehaviourOnRealisticData:
    def test_rcnp_precision_at_least_cnp(self, prepared_abtbuy):
        """RCNP's deeper pruning must not lower precision vs CNP on real-ish data."""
        from repro.core import GeneralizedSupervisedMetaBlocking
        from repro.evaluation import evaluate_result
        from repro.weights import RCNP_FEATURE_SET

        reports = {}
        for pruning in ("CNP", "RCNP"):
            pipeline = GeneralizedSupervisedMetaBlocking(
                feature_set=RCNP_FEATURE_SET, pruning=pruning, training_size=50, seed=3
            )
            result = pipeline.run(
                prepared_abtbuy.prepared.blocks,
                prepared_abtbuy.prepared.candidates,
                prepared_abtbuy.ground_truth,
                stats=prepared_abtbuy.prepared.statistics(),
            )
            reports[pruning] = evaluate_result(result, prepared_abtbuy.ground_truth)
        assert reports["RCNP"].precision >= reports["CNP"].precision


class TestDeterministicTieBreaking:
    """Ties at the retention boundary resolve by packed candidate key, so
    the retained *pair set* is invariant to candidate storage order."""

    def _tied(self):
        space = EntityIndexSpace(2, 3)
        pairs = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        probabilities = np.array([0.7, 0.7, 0.7, 0.7, 0.7, 0.9])
        return space, pairs, probabilities

    @pytest.mark.parametrize(
        "algorithm", [SupervisedCEP(budget=3), SupervisedCNP(budget=1), SupervisedRCNP(budget=1)]
    )
    def test_retained_pairs_invariant_to_storage_order(self, algorithm):
        space, pairs, probabilities = self._tied()
        baseline = None
        for order in ([0, 1, 2, 3, 4, 5], [5, 3, 1, 4, 2, 0], [2, 0, 5, 1, 4, 3]):
            shuffled_pairs = [pairs[k] for k in order]
            candidates = CandidateSet(
                np.array([p[0] for p in shuffled_pairs]),
                np.array([p[1] for p in shuffled_pairs]),
                space,
            )
            mask = algorithm.prune(probabilities[order], candidates)
            retained = {
                (int(i), int(j))
                for i, j in zip(candidates.left[mask], candidates.right[mask])
            }
            if baseline is None:
                baseline = retained
            else:
                assert retained == baseline

    def test_cep_ties_prefer_smaller_packed_keys(self):
        space, pairs, probabilities = self._tied()
        candidates = CandidateSet.from_pairs(pairs, space)
        mask = SupervisedCEP(budget=3).prune(probabilities, candidates)
        retained = set(zip(candidates.left[mask].tolist(), candidates.right[mask].tolist()))
        # (1, 4) wins outright at 0.9; the two remaining slots go to the
        # tied pairs with the smallest packed keys: (0, 2) and (0, 3)
        assert retained == {(1, 4), (0, 2), (0, 3)}
