"""The two passes behind :func:`compute_pair_cooccurrence` agree bit for bit.

``compute_pair_cooccurrence`` picks block-major or pair-major from a cost
estimate of its inputs; no argument selects one.  These tests force each
pass by patching the two constants of that estimate and assert that, on
every input the public entry point accepts, both give ``np.array_equal``
arrays that are ``np.allclose`` to a per-pair Python oracle reading the same
CSR — and that the estimate itself lands on the expected side for a
one-insert streaming delta and for a full live candidate set.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.weights.sparse as sparse
from repro.blocking import prepare_blocks
from repro.datamodel import Block, BlockCollection, EntityIndexSpace
from repro.datasets import load_benchmark
from repro.incremental import MutableBlockIndex
from repro.weights import BlockStatistics, build_entity_block_csr
from repro.weights.sparse import compute_pair_cooccurrence, plan_block_major


@contextmanager
def forced(path):
    """Make the cost estimate always answer ``path`` (where it has a choice)."""
    if path == "block-major":
        patch = mock.patch.multiple(
            sparse, _MIN_BLOCK_MAJOR_ENTRIES=0, _BLOCK_MAJOR_UNIT_COST=0
        )
    else:
        patch = mock.patch.object(sparse, "_MIN_BLOCK_MAJOR_ENTRIES", 1 << 62)
    with patch:
        yield


def oracle(csr, inverse_cardinalities, inverse_sizes, left, right):
    """Per-pair Python loop over the CSR rows."""
    rows = [
        set(csr.indices[csr.indptr[node] : csr.indptr[node + 1]].tolist())
        for node in range(csr.num_entities)
    ]
    shared = [sorted(rows[i] & rows[j]) for i, j in zip(left.tolist(), right.tolist())]
    return (
        np.array([len(ids) for ids in shared], dtype=np.float64),
        np.array([sum(inverse_cardinalities[ids]) for ids in shared], dtype=np.float64),
        np.array([sum(inverse_sizes[ids]) for ids in shared], dtype=np.float64),
    )


def assert_paths_agree(csr, inverse_cardinalities, inverse_sizes, left, right):
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    args = (csr, inverse_cardinalities, inverse_sizes, left, right)
    with forced("pair-major"):
        assert left.size == 0 or plan_block_major(csr, left, right) is None
        pair_major = compute_pair_cooccurrence(*args)
    with forced("block-major"):
        block_major = compute_pair_cooccurrence(*args)
        tiny_chunks = compute_pair_cooccurrence(*args, chunk_pairs=3)
    expected = oracle(*args)
    for name, reference in zip(
        ("common", "sum_inverse_cardinality", "sum_inverse_size"), expected
    ):
        assert np.array_equal(getattr(block_major, name), getattr(pair_major, name)), name
        assert np.array_equal(getattr(tiny_chunks, name), getattr(pair_major, name)), name
        np.testing.assert_allclose(
            getattr(pair_major, name), reference, rtol=1e-12, atol=0, err_msg=name
        )
    return block_major


# -- strategies -----------------------------------------------------------------------

@st.composite
def collections_and_pairs(draw):
    """A unilateral or bilateral collection plus an arbitrary pair request.

    Bilateral blocks may have an empty second side (what Block Filtering
    strands); requested pairs are drawn from *all* node pairs — sharing no
    block, unsorted, reversed, repeated and self-pairs included.
    """
    size_first = draw(st.integers(1, 8))
    size_second = draw(st.integers(0, 6))
    space = EntityIndexSpace(size_first, size_second)
    blocks = []
    for index in range(draw(st.integers(0, 8))):
        first = draw(st.lists(st.integers(0, size_first - 1), max_size=size_first, unique=True))
        second = (
            draw(
                st.lists(
                    st.integers(size_first, space.total - 1),
                    max_size=size_second,
                    unique=True,
                )
            )
            if size_second
            else []
        )
        blocks.append(Block(f"b{index}", sorted(first), sorted(second)))
    node = st.integers(0, space.total - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=30))
    return BlockCollection(blocks, space), pairs


# -- properties -----------------------------------------------------------------------

@given(data=collections_and_pairs())
@settings(max_examples=150, deadline=None)
def test_block_major_equals_pair_major_and_oracle(data):
    blocks, pairs = data
    stats = BlockStatistics(blocks)
    left = np.array([i for i, _ in pairs], dtype=np.int64)
    right = np.array([j for _, j in pairs], dtype=np.int64)
    assert_paths_agree(
        stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes, left, right
    )


@given(data=collections_and_pairs())
@settings(max_examples=60, deadline=None)
def test_block_major_really_runs_on_distinct_canonical_requests(data):
    """The forcing above is not vacuous: a clean request gets a plan."""
    blocks, pairs = data
    distinct = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j}, reverse=True)
    csr = build_entity_block_csr(blocks)
    left = np.array([i for i, _ in distinct], dtype=np.int64)
    right = np.array([j for _, j in distinct], dtype=np.int64)
    touched = int(np.diff(csr.indptr)[np.concatenate((left, right))].sum()) if distinct else 0
    with forced("block-major"):
        plan = plan_block_major(csr, left, right) if distinct else None
    assert (plan is not None) == (touched > 0)
    if plan is not None:
        assert np.all(np.diff(plan.keys) > 0)
        assert np.all(np.diff(plan.block_of) >= 0)


profile_tokens = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True)


@given(
    bilateral=st.booleans(),
    script=st.lists(
        st.tuples(st.sampled_from(("add", "add", "remove", "update")), profile_tokens),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=60, deadline=None)
def test_stale_rows_of_a_mutable_index(bilateral, script):
    """Removes and updates leave tombstoned CSR rows; both passes skip them."""
    from repro.datamodel import make_profile

    index = MutableBlockIndex(bilateral=bilateral)
    live = []
    for step, (operation, tokens) in enumerate(script):
        side = step % 2 if bilateral else 0
        if operation == "add" or not live:
            entity_id = f"e{step}"
            index.add_entity(make_profile(entity_id, text=" ".join(tokens)), side=side)
            live.append((entity_id, side))
        elif operation == "remove":
            entity_id, side = live.pop(step % len(live))
            index.remove_entity(entity_id, side=side)
        else:
            entity_id, side = live[step % len(live)]
            index.update_entity(make_profile(entity_id, text=" ".join(tokens)), side=side)
    candidates = index.candidate_set()
    assert_paths_agree(
        index.csr(),
        index._inverse_block_cardinalities.view(),
        index._inverse_block_sizes.view(),
        candidates.left,
        candidates.right,
    )


def test_empty_inputs():
    space = EntityIndexSpace(4)
    none = np.empty(0, dtype=np.int64)
    for blocks in ([], [Block("a", [0, 1, 2])]):
        stats = BlockStatistics(BlockCollection(blocks, space))
        args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
        assert assert_paths_agree(*args, none, none).common.shape == (0,)
    # pairs requested of a collection without a single membership
    stats = BlockStatistics(BlockCollection([Block("empty", [])], space))
    result = compute_pair_cooccurrence(
        stats.csr(),
        stats.inverse_block_cardinalities,
        stats.inverse_block_sizes,
        np.array([0, 1]),
        np.array([2, 3]),
    )
    assert result.common.tolist() == [0.0, 0.0]


def test_duplicates_self_pairs_and_orientation_through_the_entry_point():
    blocks = BlockCollection(
        [Block("a", [0, 1, 2]), Block("b", [1, 2, 3]), Block("c", [2, 3])],
        EntityIndexSpace(4),
    )
    stats = BlockStatistics(blocks)
    args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
    with forced("block-major"):
        reversed_pairs = compute_pair_cooccurrence(*args, np.array([2, 3, 1]), np.array([1, 2, 0]))
        assert plan_block_major(stats.csr(), np.array([1, 1]), np.array([2, 2])) is None
        assert plan_block_major(stats.csr(), np.array([1, 2]), np.array([2, 2])) is None
        duplicated = compute_pair_cooccurrence(*args, np.array([1, 2, 1]), np.array([2, 1, 2]))
        self_pair = compute_pair_cooccurrence(*args, np.array([2]), np.array([2]))
    assert reversed_pairs.common.tolist() == [2.0, 2.0, 1.0]
    assert duplicated.common.tolist() == [2.0, 2.0, 2.0]
    assert self_pair.common.tolist() == [3.0]


def test_key_space_overflow_falls_back_to_pair_major():
    """The packed ``block * n_active + node`` keys must fit int64."""
    csr = build_entity_block_csr(
        BlockCollection([Block("a", [0, 1, 2])], EntityIndexSpace(3))
    )
    left, right = np.array([0, 0, 1]), np.array([1, 2, 2])
    with forced("block-major"):
        assert plan_block_major(csr, left, right) is not None
        huge = sparse.EntityBlockCSR(csr.indptr, csr.indices, num_blocks=1 << 62)
        assert plan_block_major(huge, left, right) is None


# -- the cost estimate ---------------------------------------------------------------

@pytest.fixture(scope="module")
def churned_index():
    """A bilateral index after a bulk load and hundreds of tombstoned slots."""
    dataset = load_benchmark("DblpAcm", seed=5, scale=0.08)
    index = MutableBlockIndex(bilateral=True)
    first, second = list(dataset.first), list(dataset.second)
    churn = first[-12:] + second[-12:]
    sides = [0] * 12 + [1] * 12
    index.add_entities_bulk(first[:-12], side=0)
    index.add_entities_bulk(second[:-12], side=1)
    for _ in range(12):
        for profile, side in zip(churn, sides):
            index.add_entity(profile, side=side)
        for profile, side in zip(churn, sides):
            index.remove_entity(profile.entity_id, side=side)
    return index, churn[0]


def test_cost_estimate_picks_the_expected_side(churned_index):
    index, profile = churned_index
    assert index.num_slots - index.num_entities >= 250  # tombstoned rows

    full = index.candidate_set()
    assert plan_block_major(index.csr(), full.left, full.right) is not None

    delta = index.delta_candidate_set(index.add_entity(profile, side=0))
    try:
        assert len(delta) > 20
        assert plan_block_major(index.csr(), delta.left, delta.right) is None
    finally:
        index.remove_entity(profile.entity_id, side=0)


def test_slices_of_a_candidate_set_equal_the_whole(dblpacm_dataset):
    """What the parallel engine relies on: any pair range gives the same rows."""
    prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
    stats = prepared.statistics()
    left, right = prepared.candidates.left, prepared.candidates.right
    args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
    assert plan_block_major(stats.csr(), left, right) is not None
    whole = compute_pair_cooccurrence(*args, left, right)
    with forced("pair-major"):
        pair_major = compute_pair_cooccurrence(*args, left, right)
    cut = left.size // 3
    parts = [
        compute_pair_cooccurrence(*args, left[:cut], right[:cut]),
        compute_pair_cooccurrence(*args, left[cut:], right[cut:]),
    ]
    for name in ("common", "sum_inverse_cardinality", "sum_inverse_size"):
        assert np.array_equal(getattr(whole, name), getattr(pair_major, name))
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(joined, getattr(whole, name))
