"""Equivalence tests: ``workers=K`` vs the ``workers=1`` oracle.

The sharded execution engine must be *bit-identical* to the single-process
path for every worker count: prepared blocks (raw/purged/filtered,
key-for-key and member-for-member), candidate sets, the handed-over CSR and
all 9 feature schemes.  Pruning is not fanned out (one array pass over the
valid pairs, whatever ``workers`` is), so its test here holds every
algorithm's mask to its reference implementation instead — including under
probability ties, which exercise the deterministic packed-key tie-breaking.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_prune, tie_heavy_probabilities
from repro.blocking import prepare_blocks
from repro.core.features import generate_features
from repro.core.pruning import (
    CARDINALITY_BASED_ALGORITHMS,
    PRUNING_ALGORITHMS,
    BlockTotals,
    get_pruning_algorithm,
)
from repro.datamodel import EntityCollection, make_profile
from repro.parallel import ParallelExecutor
from repro.weights import PAPER_FEATURES

#: a small vocabulary (stop-words included) so random texts collide heavily
WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)

#: all 9 registered schemes — the full feature surface
ALL_SCHEMES = tuple(PAPER_FEATURES) + ("CBS",)

SLOW_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_collection(token_rows, name):
    profiles = [
        make_profile(f"{name}-{position}", text=" ".join(row))
        for position, row in enumerate(token_rows)
    ]
    return EntityCollection(profiles, name=name)


@st.composite
def collections(draw, name, min_entities=1, max_entities=10):
    n_entities = draw(st.integers(min_entities, max_entities))
    rows = [
        draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=6))
        for _ in range(n_entities)
    ]
    return make_collection(rows, name)


@pytest.fixture(scope="module", params=[2, 4])
def executor(request):
    """Module-scoped executors so Hypothesis examples share one pool."""
    with ParallelExecutor(request.param) as live:
        yield live


def assert_prepared_equal(serial, sharded):
    for attribute in ("raw_blocks", "purged_blocks", "blocks"):
        blocks_serial = list(getattr(serial, attribute))
        blocks_sharded = list(getattr(sharded, attribute))
        assert [b.key for b in blocks_serial] == [b.key for b in blocks_sharded]
        for left, right in zip(blocks_serial, blocks_sharded):
            assert left.entities_first == right.entities_first
            assert left.entities_second == right.entities_second
    assert np.array_equal(serial.candidates.left, sharded.candidates.left)
    assert np.array_equal(serial.candidates.right, sharded.candidates.right)
    assert np.array_equal(serial.csr.indptr, sharded.csr.indptr)
    assert np.array_equal(serial.csr.indices, sharded.csr.indices)


@SLOW_SETTINGS
@given(
    first=collections("first"),
    second=st.one_of(st.none(), collections("second", max_entities=6)),
    apply_purging=st.booleans(),
    apply_filtering=st.booleans(),
)
def test_prepared_blocks_bit_identical(
    executor, first, second, apply_purging, apply_filtering
):
    serial = prepare_blocks(
        first, second, apply_purging=apply_purging, apply_filtering=apply_filtering
    )
    sharded = prepare_blocks(
        first,
        second,
        apply_purging=apply_purging,
        apply_filtering=apply_filtering,
        executor=executor,
    )
    assert_prepared_equal(serial, sharded)


@SLOW_SETTINGS
@given(
    first=collections("first", min_entities=2),
    second=st.one_of(st.none(), collections("second", max_entities=6)),
)
def test_all_feature_schemes_bit_identical(executor, first, second):
    serial = prepare_blocks(first, second)
    matrix_serial = generate_features(
        serial.candidates,
        serial.blocks,
        feature_set=ALL_SCHEMES,
        stats=serial.statistics(),
    )
    sharded = prepare_blocks(first, second, executor=executor)
    matrix_sharded = generate_features(
        sharded.candidates,
        sharded.blocks,
        feature_set=ALL_SCHEMES,
        stats=sharded.statistics(),
        executor=executor,
    )
    assert matrix_serial.columns == matrix_sharded.columns
    assert np.array_equal(matrix_serial.values, matrix_sharded.values)


@SLOW_SETTINGS
@given(
    first=collections("first", min_entities=3, max_entities=12),
    second=st.one_of(st.none(), collections("second", max_entities=8)),
    seed=st.integers(0, 2**16),
)
def test_all_pruning_algorithms_bit_identical(first, second, seed):
    """Every algorithm's mask equals its reference's (``tests/reference.py``).

    This used to hold the sharded pruning path against the serial one; there
    is one path now, and what it must equal is the implementation it
    replaced — queues for CEP / CNP / RCNP, full-length ``np.add.at`` /
    ``np.maximum.at`` thresholds for the weight-based algorithms — on the
    candidates in canonical order and in a shuffled (registry-like) one.
    """
    prepared = prepare_blocks(first, second)
    if len(prepared.candidates) == 0:
        return
    shuffle = np.random.default_rng(seed).permutation(len(prepared.candidates))
    for candidates in (prepared.candidates, prepared.candidates.subset(shuffle)):
        probabilities = tie_heavy_probabilities(candidates)
        for name in sorted(PRUNING_ALGORITHMS):
            mask = get_pruning_algorithm(name).prune(
                probabilities, candidates, prepared.blocks
            )
            assert np.array_equal(
                mask, reference_prune(name, probabilities, candidates, prepared.blocks)
            ), f"{name} mask differs"
            if name not in CARDINALITY_BASED_ALGORITHMS:
                continue
            # one budget resolver: the collection's two totals derive the same
            # budget as the collection, an explicit budget needs no blocks,
            # and with neither the algorithm refuses in these words
            totals = BlockTotals.of(prepared.blocks)
            assert np.array_equal(
                get_pruning_algorithm(name).prune(probabilities, candidates, totals), mask
            )
            assert np.array_equal(
                get_pruning_algorithm(name, budget=2).prune(probabilities, candidates),
                reference_prune(name, probabilities, candidates, budget=2),
            )
            symbol = "K" if name == "CEP" else "k"
            with pytest.raises(
                ValueError,
                match=f"^{name} needs the block collection to derive its budget {symbol}$",
            ):
                get_pruning_algorithm(name).prune(probabilities, candidates, None)
