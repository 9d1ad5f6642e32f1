"""Perf smoke test: ``WeightingScheme.compute`` must not be slower than the reference.

A single coarse guard — not a benchmark (those live in ``benchmarks/``) —
that fails loudly if a regression makes the vectorized kernels degenerate
back into per-pair work.  On the ~5k-pair synthetic workload below they are
typically >10x faster than the per-pair set formulas of
``tests/reference.py``, so the 1.0x
assertion threshold leaves ample headroom against timer noise.

Deselect with ``-m "not perf"`` or skip by exporting ``REPRO_SKIP_PERF=1``
(for constrained CI runners with unreliable clocks).
"""

import os
import time

import numpy as np
import pytest

from repro.core import FeatureVectorGenerator
from repro.datamodel import EntityIndexSpace
from repro.weights import BLAST_FEATURE_SET, PAPER_FEATURES

from reference import (
    Block,
    BlockCollection,
    block_statistics,
    reference_candidates,
    reference_feature_matrix,
)

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        os.environ.get("REPRO_SKIP_PERF") == "1",
        reason="REPRO_SKIP_PERF=1: perf smoke tests disabled",
    ),
]


@pytest.fixture(scope="module")
def synthetic_workload():
    """A unilateral collection whose distinct pairs number ~5k."""
    rng = np.random.default_rng(42)
    total = 700
    space = EntityIndexSpace(total, 0)
    blocks = []
    for index in range(380):
        size = int(rng.integers(3, 9))
        members = sorted(int(node) for node in rng.choice(total, size=size, replace=False))
        blocks.append(Block(f"s{index}", members))
    collection = BlockCollection(blocks, space)
    candidates = reference_candidates(collection)
    assert 4_000 <= len(candidates) <= 12_000, len(candidates)
    return collection, candidates


def _best_of_three(generate, blocks, candidates):
    """Best-of-3 feature-generation time with fresh statistics per run."""
    best = float("inf")
    for _ in range(3):
        stats = block_statistics(blocks, candidates)
        start = time.perf_counter()
        generate(candidates, stats)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "feature_set",
    [BLAST_FEATURE_SET, PAPER_FEATURES],
    ids=["blast_formula1", "all_paper_features"],
)
def test_sparse_backend_not_slower_than_loop(synthetic_workload, feature_set):
    blocks, candidates = synthetic_workload
    loop_seconds = _best_of_three(
        lambda pairs, stats: reference_feature_matrix(feature_set, pairs, blocks),
        blocks,
        candidates,
    )
    sparse_seconds = _best_of_three(
        FeatureVectorGenerator(feature_set).generate, blocks, candidates
    )
    assert sparse_seconds <= loop_seconds, (
        f"vectorized kernels regressed: {sparse_seconds:.4f}s vs reference "
        f"{loop_seconds:.4f}s on {len(candidates)} pairs"
    )
