"""Tests for the weight-based supervised pruning algorithms.

The expected behaviour is hand-checked on a tiny star-shaped candidate set
whose probabilities are chosen to discriminate the algorithms: the validity
threshold, the global average (WEP), the per-node averages (WNP/RWNP) and the
per-node maxima (BLAST).
"""

import numpy as np
import pytest

from repro.core import (
    BinaryClassifierPruning,
    SupervisedBLAST,
    SupervisedRWNP,
    SupervisedWEP,
    SupervisedWNP,
    VALIDITY_THRESHOLD,
    get_pruning_algorithm,
)
from repro.core.pruning import CARDINALITY_BASED_ALGORITHMS, PRUNING_ALGORITHMS
from repro.datamodel import EntityIndexSpace

from reference import candidate_set


@pytest.fixture
def star_candidates():
    """Pairs (0,3), (0,4), (1,3), (2,4) over a 3+2 Clean-Clean space."""
    space = EntityIndexSpace(3, 2)
    return candidate_set([(0, 3), (0, 4), (1, 3), (2, 4)], space)


@pytest.fixture
def star_probabilities():
    """Probabilities aligned with the sorted candidate order of the fixture.

    sorted pairs: (0,3)=0.9, (0,4)=0.6, (1,3)=0.7, (2,4)=0.3
    """
    return np.array([0.9, 0.6, 0.7, 0.3])


class TestBinaryClassifier:
    def test_keeps_only_valid_pairs(self, star_candidates, star_probabilities):
        mask = BinaryClassifierPruning().prune(star_probabilities, star_candidates)
        assert mask.tolist() == [True, True, True, False]

    def test_threshold_is_half(self):
        assert VALIDITY_THRESHOLD == 0.5


class TestWEP:
    def test_global_average_threshold(self, star_candidates, star_probabilities):
        # valid probabilities: 0.9, 0.6, 0.7 -> mean 0.7333; only 0.9 survives
        mask = SupervisedWEP().prune(star_probabilities, star_candidates)
        assert mask.tolist() == [True, False, False, False]

    def test_no_valid_pairs(self, star_candidates):
        mask = SupervisedWEP().prune(np.full(4, 0.1), star_candidates)
        assert not mask.any()

    def test_all_equal_probabilities_retained(self, star_candidates):
        mask = SupervisedWEP().prune(np.full(4, 0.8), star_candidates)
        assert mask.all()


class TestWNP:
    def test_per_node_average_or_semantics(self, star_candidates, star_probabilities):
        # node averages (valid only): n0=(0.9+0.6)/2=0.75, n1=0.7, n2=inf (no valid),
        # n3=(0.9+0.7)/2=0.8, n4=0.6
        # (0,3): 0.9 >= 0.75 or >= 0.8 -> kept
        # (0,4): 0.6 <  0.75 but >= 0.6 -> kept (via node 4)
        # (1,3): 0.7 >= 0.7 -> kept
        # (2,4): invalid -> dropped
        mask = SupervisedWNP().prune(star_probabilities, star_candidates)
        assert mask.tolist() == [True, True, True, False]

    def test_deeper_pruning_than_bcl_possible(self, star_candidates):
        probabilities = np.array([0.95, 0.55, 0.6, 0.52])
        bcl = BinaryClassifierPruning().prune(probabilities, star_candidates)
        wnp = SupervisedWNP().prune(probabilities, star_candidates)
        assert wnp.sum() <= bcl.sum()


class TestRWNP:
    def test_and_semantics(self, star_candidates, star_probabilities):
        # (0,4): 0.6 < 0.75 (node 0 average) -> dropped under AND semantics
        # (1,3): 0.7 < 0.8 (node 3 average = (0.9 + 0.7)/2) -> also dropped
        mask = SupervisedRWNP().prune(star_probabilities, star_candidates)
        assert mask.tolist() == [True, False, False, False]

    def test_subset_of_wnp(self, prepared_abtbuy):
        rng = np.random.default_rng(0)
        probabilities = rng.uniform(0, 1, len(prepared_abtbuy.prepared.candidates))
        wnp = SupervisedWNP().prune(probabilities, prepared_abtbuy.prepared.candidates)
        rwnp = SupervisedRWNP().prune(probabilities, prepared_abtbuy.prepared.candidates)
        assert np.all(~rwnp | wnp)  # rwnp implies wnp
        assert rwnp.sum() <= wnp.sum()


class TestBLAST:
    def test_ratio_threshold(self, star_candidates, star_probabilities):
        # maxima: n0=0.9, n1=0.7, n2=0 (no valid), n3=0.9, n4=0.6
        # r=0.35: (0,3): 0.35*1.8=0.63 <= 0.9 keep; (0,4): 0.35*1.5=0.525 <= 0.6 keep
        # (1,3): 0.35*1.6=0.56 <= 0.7 keep; (2,4) invalid
        mask = SupervisedBLAST(ratio=0.35).prune(star_probabilities, star_candidates)
        assert mask.tolist() == [True, True, True, False]

    def test_higher_ratio_prunes_more(self, star_candidates, star_probabilities):
        lenient = SupervisedBLAST(ratio=0.35).prune(star_probabilities, star_candidates)
        strict = SupervisedBLAST(ratio=0.6).prune(star_probabilities, star_candidates)
        assert strict.sum() <= lenient.sum()

    def test_ratio_half_requires_joint_maximum(self, star_candidates, star_probabilities):
        # r = 0.5: a pair must reach half the sum of both maxima
        mask = SupervisedBLAST(ratio=0.5).prune(star_probabilities, star_candidates)
        assert mask[0]  # (0,3) with 0.9 >= 0.5*1.8
        assert not mask[1]  # (0,4): 0.6 < 0.5*1.5

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SupervisedBLAST(ratio=0.0)
        with pytest.raises(ValueError):
            SupervisedBLAST(ratio=1.5)


class TestValidation:
    def test_probability_bounds_checked(self, star_candidates):
        with pytest.raises(ValueError):
            SupervisedWEP().prune(np.array([0.5, 0.5, 0.5, 1.5]), star_candidates)

    @pytest.mark.parametrize("name", sorted(PRUNING_ALGORITHMS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_refused(self, star_candidates, name, bad):
        """NaN fails every comparison, so ``min < 0 or max > 1`` let it through
        and ``NaN >= 0.5`` then silently pruned every pair."""
        explicit = {"budget": 2} if name in CARDINALITY_BASED_ALGORITHMS else {}
        algorithm = get_pruning_algorithm(name, **explicit)
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            algorithm.prune(np.array([0.9, bad, 0.7, 0.3]), star_candidates)

    def test_length_mismatch_checked(self, star_candidates):
        with pytest.raises(ValueError):
            SupervisedWEP().prune(np.array([0.5]), star_candidates)

    def test_registry_lookup(self):
        for name in ("BCl", "WEP", "WNP", "RWNP", "BLAST"):
            assert get_pruning_algorithm(name).name == name
        with pytest.raises(KeyError):
            get_pruning_algorithm("NOPE")
