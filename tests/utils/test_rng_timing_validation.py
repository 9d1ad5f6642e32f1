"""Tests for RNG helpers, timing utilities and validation functions."""

import time

import numpy as np
import pytest

from repro.utils import StageTimer, make_rng, sample_without_replacement, spawn_seeds, speedup
from repro.utils.validation import (
    check_binary_labels,
    check_consistent_length,
    check_matrix,
    check_ratio,
)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(42).integers(0, 100, 5).tolist() == make_rng(42).integers(0, 100, 5).tolist()

    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_spawn_seeds_deterministic_and_distinct(self):
        seeds = spawn_seeds(7, 5)
        assert seeds == spawn_seeds(7, 5)
        assert len(set(seeds)) == 5

    def test_spawn_seeds_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_sample_without_replacement_distinct(self):
        rng = make_rng(0)
        sample = sample_without_replacement(rng, 100, 10)
        assert len(sample) == 10
        assert len(set(sample.tolist())) == 10

    def test_sample_without_replacement_oversized_returns_all(self):
        rng = make_rng(0)
        sample = sample_without_replacement(rng, 5, 10)
        assert sorted(sample.tolist()) == [0, 1, 2, 3, 4]


class TestStageTimer:
    def test_stage_accumulates(self):
        timer = StageTimer()
        with timer.stage("work"):
            time.sleep(0.01)
        with timer.stage("work"):
            time.sleep(0.01)
        assert timer.get("work") >= 0.02
        assert timer.total == pytest.approx(timer.get("work"))

    def test_speedup_linear_scaling_is_one(self):
        assert speedup(100, 1000, 1.0, 10.0) == pytest.approx(1.0)

    def test_speedup_sublinear(self):
        assert speedup(100, 1000, 1.0, 20.0) == pytest.approx(0.5)

    def test_speedup_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup(0, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1, 10, 0.0, 1.0)


class TestValidation:
    def test_check_ratio(self):
        assert check_ratio(1.0) == 1.0
        with pytest.raises(ValueError):
            check_ratio(0.0)

    def test_check_matrix(self):
        matrix = check_matrix([[1, 2], [3, 4]])
        assert matrix.shape == (2, 2)
        with pytest.raises(ValueError):
            check_matrix([1, 2, 3])
        with pytest.raises(ValueError):
            check_matrix([[np.nan, 1.0]])

    def test_check_binary_labels(self):
        labels = check_binary_labels([0, 1, 1])
        assert labels.tolist() == [0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match=r"0/1 labels, got values \[0. 2.\]"):
            check_binary_labels([0, 2, 2])
        with pytest.raises(ValueError):
            check_binary_labels([[0, 1]])

    def test_check_consistent_length(self):
        check_consistent_length(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            check_consistent_length(np.zeros(3), np.zeros(4))
