"""Tests for the synthetic dataset generators (vocabulary, corruption, benchmarks, dirty)."""

import numpy as np
import pytest

from repro.datasets import (
    CLEAN_CLEAN_ORDER,
    CLEAN_CLEAN_PROFILES,
    CorruptionConfig,
    DIRTY_ORDER,
    corrupt_attributes,
    corrupt_tokens,
    generate_clean_clean,
    generate_dirty,
    get_dirty_profile,
    get_profile,
    get_vocabulary,
    introduce_typo,
    load_benchmark,
    load_dirty_dataset,
)
from repro.utils.rng import make_rng


class TestVocabulary:
    def test_all_domains_available(self):
        for domain in ("products", "movies", "bibliographic", "people"):
            vocabulary = get_vocabulary(domain, size=500)
            assert len(vocabulary.tokens) == 500
            assert vocabulary.domain == domain

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            get_vocabulary("astrology")

    def test_zipf_sampling_prefers_frequent_tokens(self, rng):
        vocabulary = get_vocabulary("products", size=1000)
        sampled = vocabulary.sample_tokens(rng, 5000, with_common=False)
        head = sum(1 for token in sampled if token in vocabulary.tokens[:50])
        tail = sum(1 for token in sampled if token in vocabulary.tokens[-50:])
        assert head > 5 * max(tail, 1)

    def test_sample_zero_tokens(self, rng):
        vocabulary = get_vocabulary("movies", size=100)
        assert vocabulary.sample_tokens(rng, 0) == []


class TestCorruption:
    def test_typo_changes_token(self, rng):
        token = "television"
        changed = sum(introduce_typo(token, rng) != token for _ in range(20))
        assert changed >= 15  # typos almost always alter the token

    def test_corrupt_tokens_never_empty(self, rng):
        config = CorruptionConfig(token_drop_probability=1.0)
        result = corrupt_tokens(["only"], config, rng)
        assert result  # at least one token survives

    def test_corrupt_attributes_keeps_one_value(self, rng):
        config = CorruptionConfig(attribute_missing_probability=1.0)
        attributes = {"a": "foo bar", "b": "baz"}
        corrupted = corrupt_attributes(attributes, config, rng)
        assert any(value for value in corrupted.values())

    def test_zero_noise_is_identity(self, rng):
        config = CorruptionConfig(0.0, 0.0, 0.0, 0.0)
        attributes = {"a": "foo bar", "b": "baz"}
        assert corrupt_attributes(attributes, config, rng) == attributes

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            CorruptionConfig(token_typo_probability=1.5)

    def test_preset_levels_ordered(self):
        clean, noisy = CorruptionConfig.clean(), CorruptionConfig.noisy()
        assert clean.token_drop_probability < noisy.token_drop_probability
        assert clean.attribute_missing_probability < noisy.attribute_missing_probability


class TestRegistry:
    def test_all_nine_benchmarks_registered(self):
        assert len(CLEAN_CLEAN_ORDER) == 9
        for name in CLEAN_CLEAN_ORDER:
            profile = get_profile(name)
            assert profile.name == name

    def test_all_five_dirty_datasets_registered(self):
        assert DIRTY_ORDER == ["D10K", "D50K", "D100K", "D200K", "D300K"]
        for name in DIRTY_ORDER:
            assert get_dirty_profile(name).name == name

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            get_profile("Nope")
        with pytest.raises(KeyError):
            get_dirty_profile("D1M")

    def test_generated_sizes_respect_scale(self):
        profile = get_profile("DblpAcm")
        small = profile.generated_sizes(0.05)
        large = profile.generated_sizes(0.2)
        assert small[0] < large[0]
        assert small[2] <= min(small[0], small[1])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_profile("AbtBuy").generated_sizes(0.0)

    def test_paper_characteristics_recorded(self):
        profile = get_profile("WalmartAmazon")
        assert profile.paper_entities_second == 22_100
        assert profile.paper_candidates == 27_400_000


class TestCleanCleanGeneration:
    def test_deterministic_generation(self):
        first = load_benchmark("AbtBuy", seed=3)
        second = load_benchmark("AbtBuy", seed=3)
        assert first.first.ids() == second.first.ids()
        assert first.first[0].attributes == second.first[0].attributes
        assert first.ground_truth.pairs() == second.ground_truth.pairs()

    def test_different_seeds_differ(self):
        first = load_benchmark("AbtBuy", seed=3)
        second = load_benchmark("AbtBuy", seed=4)
        assert first.first[0].attributes != second.first[0].attributes

    def test_sizes_match_profile(self):
        profile = get_profile("ImdbTmdb")
        dataset = generate_clean_clean(profile, seed=0)
        expected_first, expected_second, expected_duplicates = profile.generated_sizes()
        assert len(dataset.first) == expected_first
        assert len(dataset.second) == expected_second
        assert len(dataset.ground_truth) == expected_duplicates

    def test_ground_truth_pairs_cross_collections(self):
        dataset = load_benchmark("DblpAcm", seed=0)
        space = dataset.ground_truth.index_space
        for left, right in dataset.ground_truth:
            assert left < space.size_first
            assert right >= space.size_first

    def test_collections_are_clean(self):
        dataset = load_benchmark("DblpAcm", seed=0)
        assert dataset.first.is_clean and dataset.second.is_clean

    def test_noisy_profile_shares_fewer_tokens_than_clean(self):
        from repro.utils.text import tokens

        def average_overlap(dataset):
            overlaps = []
            for left, right in list(dataset.ground_truth)[:50]:
                first_profile = dataset.first[left]
                second_profile = dataset.second[right - len(dataset.first)]
                first_tokens = set(tokens(first_profile.text()))
                second_tokens = set(tokens(second_profile.text()))
                union = first_tokens | second_tokens
                if union:
                    overlaps.append(len(first_tokens & second_tokens) / len(union))
            return np.mean(overlaps)

        noisy = load_benchmark("AbtBuy", seed=1)
        clean = load_benchmark("DblpAcm", seed=1)
        assert average_overlap(noisy) < average_overlap(clean)

    def test_summary(self):
        dataset = load_benchmark("AbtBuy", seed=0)
        summary = dataset.summary()
        assert summary["entities_first"] == len(dataset.first)
        assert summary["duplicates"] == len(dataset.ground_truth)


class TestDirtyGeneration:
    def test_deterministic(self):
        first = load_dirty_dataset("D10K", seed=2, scale=0.03)
        second = load_dirty_dataset("D10K", seed=2, scale=0.03)
        assert first.collection.ids() == second.collection.ids()
        assert first.ground_truth.pairs() == second.ground_truth.pairs()

    def test_single_dirty_collection(self):
        dataset = load_dirty_dataset("D10K", seed=0, scale=0.03)
        assert not dataset.collection.is_clean
        assert len(dataset.ground_truth) > 0
        # all ground-truth nodes live in the single collection's index space
        for left, right in dataset.ground_truth:
            assert 0 <= left < len(dataset.collection)
            assert 0 <= right < len(dataset.collection)

    def test_sizes_increase_along_series(self):
        small = get_dirty_profile("D10K").generated_size()
        large = get_dirty_profile("D300K").generated_size()
        assert small < get_dirty_profile("D100K").generated_size() < large

    def test_summary(self):
        dataset = load_dirty_dataset("D50K", seed=0, scale=0.01)
        summary = dataset.summary()
        assert summary["entities"] == len(dataset.collection)
