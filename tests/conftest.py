"""Shared fixtures for the test suite.

The fixtures build small, deterministic datasets and prepared block
collections that many test modules reuse; they are module-scoped (or
session-scoped) so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.datamodel import (
    Block,
    BlockCollection,
    CandidateSet,
    EntityCollection,
    EntityIndexSpace,
    GroundTruth,
    make_profile,
)
from repro.datasets import load_benchmark, load_dirty_dataset
from repro.evaluation import PreparedDataset
from repro.weights import BlockStatistics


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: wall-clock perf smoke test (skippable via REPRO_SKIP_PERF=1)"
    )
    config.addinivalue_line(
        "markers", "slow: slower integration test (spawns daemon subprocesses)"
    )
    config.addinivalue_line(
        "markers",
        "chaos: seeded fault-injection test (kill-loops, torn WAL tails); "
        "seed overridable via REPRO_CHAOS_SEED",
    )
    config.addinivalue_line(
        "markers",
        "equivalence: reference-equivalence, golden-regression or guard test "
        "(the set `make test-equivalence` runs)",
    )


# -- tiny hand-built fixture (the paper's running example, Figure 1) -----------------

@pytest.fixture(scope="session")
def paper_example_profiles():
    """The 7 smartphone profiles of the paper's Figure 1 (e1..e7)."""
    first = EntityCollection(
        [
            make_profile("e1", model="Apple iPhone X", category="Smartphone"),
            make_profile("e2", model="Samsung S20", group="smartphone"),
            make_profile("e5", name="Huawei Mate 20", type="smartphone"),
            make_profile("e6", name="Samsung Fold", descr="foldable phone"),
        ],
        name="shop-1",
    )
    second = EntityCollection(
        [
            make_profile("e3", name="iPhone 10", type="smartphone", producer="Apple"),
            make_profile("e4", type="Samsung 20", descr="smartphone"),
            make_profile(
                "e7",
                offer="Samsung foldable Your perfect mate phone, today 20 discount",
            ),
        ],
        name="shop-2",
    )
    truth = GroundTruth.from_id_pairs(
        [("e1", "e3"), ("e2", "e4"), ("e6", "e7")], first, second
    )
    return first, second, truth


@pytest.fixture(scope="session")
def small_blocks():
    """A small hand-built bilateral block collection with known statistics."""
    space = EntityIndexSpace(3, 3)  # nodes 0,1,2 (first) and 3,4,5 (second)
    blocks = BlockCollection(
        [
            Block("alpha", [0, 1], [3]),
            Block("beta", [0], [3, 4]),
            Block("gamma", [1, 2], [4, 5]),
            Block("delta", [2], [5]),
        ],
        space,
    )
    return blocks


@pytest.fixture(scope="session")
def small_candidates(small_blocks):
    """Distinct candidate pairs of the small block collection."""
    return CandidateSet.from_blocks(small_blocks)


@pytest.fixture(scope="session")
def small_stats(small_blocks):
    """Block statistics of the small block collection."""
    return BlockStatistics(small_blocks)


# -- generated benchmark fixtures -----------------------------------------------------

@pytest.fixture(scope="session")
def abtbuy_dataset():
    """The generated AbtBuy benchmark (noisy, low-recall profile)."""
    return load_benchmark("AbtBuy", seed=11)


@pytest.fixture(scope="session")
def dblpacm_dataset():
    """The generated DblpAcm benchmark (clean, high-recall profile)."""
    return load_benchmark("DblpAcm", seed=11)


@pytest.fixture(scope="session")
def prepared_dblpacm(dblpacm_dataset):
    """DblpAcm pushed through Token Blocking + Purging + Filtering."""
    prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
    return PreparedDataset("DblpAcm", prepared, dblpacm_dataset.ground_truth)


@pytest.fixture(scope="session")
def prepared_abtbuy(abtbuy_dataset):
    """AbtBuy pushed through Token Blocking + Purging + Filtering."""
    prepared = prepare_blocks(abtbuy_dataset.first, abtbuy_dataset.second)
    return PreparedDataset("AbtBuy", prepared, abtbuy_dataset.ground_truth)


@pytest.fixture(scope="session")
def prepared_dirty():
    """A small Dirty ER dataset pushed through the blocking pipeline."""
    dataset = load_dirty_dataset("D10K", seed=5, scale=0.03)
    return PreparedDataset("D10K", prepare_blocks(dataset.collection), dataset.ground_truth)


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(123)
