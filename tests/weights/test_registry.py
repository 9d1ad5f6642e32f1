"""Tests for the weighting-scheme registry and feature-set helpers."""

import pytest

from repro.weights import (
    BLAST_FEATURE_SET,
    ORIGINAL_FEATURE_SET,
    PAPER_FEATURES,
    RCNP_FEATURE_SET,
    SCHEME_CLASSES,
    all_feature_subsets,
    get_scheme,
    get_schemes,
)


class TestRegistry:
    def test_every_registered_scheme_instantiates(self):
        for name in SCHEME_CLASSES:
            scheme = get_scheme(name)
            assert scheme.name == name

    def test_unknown_scheme_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known schemes"):
            get_scheme("BOGUS")

    def test_get_schemes_preserves_order(self):
        schemes = get_schemes(["JS", "CF-IBF"])
        assert [scheme.name for scheme in schemes] == ["JS", "CF-IBF"]

    def test_get_schemes_rejects_duplicates(self):
        with pytest.raises(ValueError):
            get_schemes(["JS", "JS"])

    def test_paper_feature_sets_are_registered(self):
        for feature_set in (ORIGINAL_FEATURE_SET, BLAST_FEATURE_SET, RCNP_FEATURE_SET):
            for name in feature_set:
                assert name in SCHEME_CLASSES

    def test_paper_formulas(self):
        assert set(BLAST_FEATURE_SET) == {"CF-IBF", "RACCB", "RS", "NRS"}
        assert set(RCNP_FEATURE_SET) == {"CF-IBF", "RACCB", "JS", "LCP", "WJS"}
        assert set(ORIGINAL_FEATURE_SET) == {"CF-IBF", "RACCB", "JS", "LCP"}
        assert "LCP" not in BLAST_FEATURE_SET  # the expensive feature BLAST avoids


class TestFeatureSubsets:
    def test_enumerates_255_subsets_of_eight_features(self):
        subsets = all_feature_subsets(PAPER_FEATURES)
        assert len(subsets) == 2 ** len(PAPER_FEATURES) - 1 == 255

    def test_no_duplicates_and_all_non_empty(self):
        subsets = all_feature_subsets(PAPER_FEATURES)
        assert len(set(subsets)) == len(subsets)
        assert all(len(subset) >= 1 for subset in subsets)

    def test_min_size_filter(self):
        subsets = all_feature_subsets(("A", "B", "C"), min_size=2)
        assert all(len(subset) >= 2 for subset in subsets)
        assert len(subsets) == 4

    def test_ordered_by_size(self):
        subsets = all_feature_subsets(("A", "B", "C"))
        sizes = [len(subset) for subset in subsets]
        assert sizes == sorted(sizes)

    def test_invalid_min_size(self):
        with pytest.raises(ValueError):
            all_feature_subsets(("A",), min_size=0)
