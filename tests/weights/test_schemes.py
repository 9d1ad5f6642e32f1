"""Tests for the weighting schemes, with hand-computed expected values.

The fixture block collection (see ``tests/weights/test_statistics.py``) gives
closed-form values for the pair (0, 3), which shares blocks "alpha" and
"beta", and for the pair (1, 4), which shares only "gamma".
"""

import math

import numpy as np
import pytest

from repro.datamodel import CandidateSet
from repro.weights import (
    CFIBFScheme,
    CommonBlocksScheme,
    EnhancedJaccardScheme,
    JaccardScheme,
    LocalCandidatesScheme,
    NormalizedReciprocalSizesScheme,
    RACCBScheme,
    ReciprocalSizesScheme,
    WeightedJaccardScheme,
)

from reference import pair_positions


def pair_position(candidates: CandidateSet, i: int, j: int) -> int:
    return pair_positions(candidates)[(i, j) if i < j else (j, i)]


@pytest.fixture(scope="module")
def values(small_candidates, small_stats):
    """Compute every scheme once for all candidate pairs of the fixture."""
    schemes = {
        "CBS": CommonBlocksScheme(),
        "CF-IBF": CFIBFScheme(),
        "RACCB": RACCBScheme(),
        "JS": JaccardScheme(),
        "EJS": EnhancedJaccardScheme(),
        "WJS": WeightedJaccardScheme(),
        "RS": ReciprocalSizesScheme(),
        "NRS": NormalizedReciprocalSizesScheme(),
        "LCP": LocalCandidatesScheme(),
    }
    return {
        name: scheme.compute(small_candidates, small_stats)
        for name, scheme in schemes.items()
    }


class TestSchemeValues:
    def test_cbs(self, values, small_candidates):
        position = pair_position(small_candidates, 0, 3)
        assert values["CBS"][position, 0] == 2.0
        assert values["CBS"][pair_position(small_candidates, 1, 4), 0] == 1.0

    def test_jaccard(self, values, small_candidates):
        assert values["JS"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(1.0)
        assert values["JS"][pair_position(small_candidates, 1, 4), 0] == pytest.approx(1 / 3)

    def test_cf_ibf(self, values, small_candidates):
        expected = 2.0 * math.log(4 / 2) * math.log(4 / 2)
        assert values["CF-IBF"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(expected)

    def test_raccb(self, values, small_candidates):
        # shared blocks alpha (||b||=2) and beta (||b||=2): 1/2 + 1/2
        assert values["RACCB"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(1.0)
        # shared block gamma (||b||=4): 1/4
        assert values["RACCB"][pair_position(small_candidates, 1, 4), 0] == pytest.approx(0.25)

    def test_rs(self, values, small_candidates):
        # shared blocks alpha (|b|=3) and beta (|b|=3): 1/3 + 1/3
        assert values["RS"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(2 / 3)

    def test_wjs(self, values, small_candidates):
        assert values["WJS"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(1.0)

    def test_nrs(self, values, small_candidates):
        assert values["NRS"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(1.0)

    def test_ejs(self, values, small_candidates):
        expected = 1.0 * math.log(9 / 4) * math.log(9 / 4)
        assert values["EJS"][pair_position(small_candidates, 0, 3), 0] == pytest.approx(expected)

    def test_lcp_two_columns(self, values, small_candidates):
        position = pair_position(small_candidates, 0, 3)
        assert values["LCP"].shape[1] == 2
        assert values["LCP"][position, 0] == 2.0  # LCP(e_0)
        assert values["LCP"][position, 1] == 2.0  # LCP(e_3)
        position_1_4 = pair_position(small_candidates, 1, 4)
        assert values["LCP"][position_1_4, 0] == 3.0
        assert values["LCP"][position_1_4, 1] == 3.0


class TestSchemeProperties:
    def test_all_pair_schemes_non_negative(self, values):
        for name, matrix in values.items():
            assert np.all(matrix >= 0.0), name

    def test_normalised_schemes_at_most_one(self, values):
        for name in ("JS", "WJS", "NRS"):
            assert np.all(values[name] <= 1.0 + 1e-12), name

    def test_pairs_sharing_more_blocks_score_higher(self, values, small_candidates):
        strong = pair_position(small_candidates, 0, 3)  # 2 shared blocks
        weak = pair_position(small_candidates, 1, 4)  # 1 shared (large) block
        for name in ("CBS", "CF-IBF", "RACCB", "JS", "RS", "WJS", "NRS"):
            assert values[name][strong, 0] > values[name][weak, 0], name

    def test_shapes_match_candidates(self, values, small_candidates):
        for name, matrix in values.items():
            assert matrix.shape[0] == len(small_candidates), name
