"""Tests for the bounded top-weight priority queue (the reference queue under
``tests/reference.py``'s CEP / CNP / RCNP oracle)."""

import pytest

from reference import BoundedTopQueue


class TestBoundedTopQueue:
    def test_keeps_top_weighted_items(self):
        queue = BoundedTopQueue(2)
        queue.push(0.1, "low")
        queue.push(0.9, "high")
        queue.push(0.5, "mid")
        assert queue.items() == ["high", "mid"]

    def test_eviction_returns_displaced_item(self):
        queue = BoundedTopQueue(1)
        assert queue.push(0.5, "a") is None
        assert queue.push(0.9, "b") == "a"
        assert queue.push(0.1, "c") == "c"  # rejected item is "evicted" immediately

    def test_min_weight_tracks_admission_threshold(self):
        queue = BoundedTopQueue(2)
        assert queue.min_weight == 0.0
        queue.push(0.4, "a")
        assert queue.min_weight == 0.0  # not yet full
        queue.push(0.7, "b")
        assert queue.min_weight == pytest.approx(0.4)
        queue.push(0.9, "c")
        assert queue.min_weight == pytest.approx(0.7)

    def test_items_ordered_by_decreasing_weight(self):
        queue = BoundedTopQueue(3)
        for weight, item in [(0.2, "c"), (0.9, "a"), (0.5, "b")]:
            queue.push(weight, item)
        assert queue.items() == ["a", "b", "c"]
        assert queue.weighted_items()[0] == (0.9, "a")

    def test_ties_keep_earlier_insertions(self):
        queue = BoundedTopQueue(1)
        queue.push(0.5, "first")
        evicted = queue.push(0.5, "second")
        assert evicted == "second"
        assert queue.items() == ["first"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedTopQueue(0)


class TestDeterministicTieKeys:
    def test_explicit_keys_break_ties_order_independently(self):
        """Among equal weights the smallest key survives, however pushed."""
        for order in ([(7, "g"), (3, "c"), (5, "e")], [(5, "e"), (7, "g"), (3, "c")]):
            queue = BoundedTopQueue(2)
            for key, item in order:
                queue.push(0.5, item, key=key)
            assert queue.items() == ["c", "e"]

    def test_key_beats_insertion_order(self):
        queue = BoundedTopQueue(1)
        queue.push(0.5, "late-key", key=9)
        evicted = queue.push(0.5, "early-key", key=1)
        assert evicted == "late-key"
        assert queue.items() == ["early-key"]

    def test_weight_still_dominates_key(self):
        queue = BoundedTopQueue(1)
        queue.push(0.4, "low", key=1)
        assert queue.push(0.9, "high", key=99) == "low"
        assert queue.items() == ["high"]

