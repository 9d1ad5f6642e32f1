"""Equivalence tests: ``workers=K`` vs the ``workers=1`` oracle.

The sharded execution engine must be *bit-identical* to the single-process
path for every worker count: prepared blocks (raw/purged/filtered,
key-for-key and member-for-member), candidate sets, the handed-over CSR,
all 9 feature schemes, and the retained mask of every pruning algorithm —
including under probability ties, which exercise the deterministic
packed-key tie-breaking across worker boundaries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import prepare_blocks
from repro.core.features import generate_features
from repro.core.pruning import (
    CARDINALITY_BASED_ALGORITHMS,
    PRUNING_ALGORITHMS,
    BlockTotals,
    get_pruning_algorithm,
)
from repro.datamodel import EntityCollection, make_profile
from repro.parallel import ParallelExecutor, parallel_prune
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


def tie_heavy_probabilities(candidates):
    """Deterministic pseudo-probabilities quantised into heavy ties.

    Quantisation forces many exact probability ties, so any worker-boundary
    sensitivity in the tie-breaking of the cardinality algorithms would
    surface as a mask difference.
    """
    keys = candidates.packed_keys()
    raw = (keys * np.int64(2654435761)) % np.int64(1000)
    return np.round(raw / 999.0, 1)


@SLOW_SETTINGS
@given(
    first=collections("first", min_entities=3, max_entities=12),
    second=st.one_of(st.none(), collections("second", max_entities=8)),
)
def test_all_pruning_algorithms_bit_identical(executor, first, second):
    prepared = prepare_blocks(first, second)
    if len(prepared.candidates) == 0:
        return
    probabilities = tie_heavy_probabilities(prepared.candidates)
    for name in sorted(PRUNING_ALGORITHMS):
        serial = get_pruning_algorithm(name).prune(
            probabilities, prepared.candidates, prepared.blocks
        )
        sharded = parallel_prune(
            get_pruning_algorithm(name),
            probabilities,
            prepared.candidates,
            prepared.blocks,
            executor,
        )
        assert np.array_equal(serial, sharded), f"{name} mask differs"
        if name not in CARDINALITY_BASED_ALGORITHMS:
            continue
        # one budget resolver behind both paths: the collection's two totals
        # derive the same budget as the collection, an explicit budget needs
        # no blocks, and with neither both paths refuse in the same words
        totals = BlockTotals.of(prepared.blocks)
        explicit = get_pruning_algorithm(name, budget=2)
        for prune in (
            lambda algorithm, blocks: algorithm.prune(
                probabilities, prepared.candidates, blocks
            ),
            lambda algorithm, blocks: parallel_prune(
                algorithm, probabilities, prepared.candidates, blocks, executor
            ),
        ):
            assert np.array_equal(prune(get_pruning_algorithm(name), totals), serial)
            assert np.array_equal(
                prune(explicit, None), explicit.prune(probabilities, prepared.candidates)
            )
            symbol = "K" if name == "CEP" else "k"
            with pytest.raises(
                ValueError,
                match=f"^{name} needs the block collection to derive its budget {symbol}$",
            ):
                prune(get_pruning_algorithm(name), None)
