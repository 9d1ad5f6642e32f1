"""Tests for the feature-set combinations of the exhaustive selection.

The sweep over them runs through the experiment runner: its ranking is
tested with the Tables 3/4 entry in ``tests/experiments``.
"""

from repro.core import FeatureSetCandidate, enumerate_feature_sets


class TestEnumeration:
    def test_enumerates_all_255_sets(self):
        sets = enumerate_feature_sets()
        assert len(sets) == 255
        assert sets[0].set_id == 1
        assert sets[-1].set_id == 255
        assert len(sets[-1].features) == 8

    def test_ids_are_stable_and_unique(self):
        first = enumerate_feature_sets()
        second = enumerate_feature_sets()
        assert [c.features for c in first] == [c.features for c in second]
        assert len({c.set_id for c in first}) == 255

    def test_label_format(self):
        candidate = FeatureSetCandidate(set_id=1, features=("CF-IBF", "JS"))
        assert candidate.label() == "{CF-IBF, JS}"

    def test_custom_pool(self):
        sets = enumerate_feature_sets(("JS", "RS"))
        assert len(sets) == 3
