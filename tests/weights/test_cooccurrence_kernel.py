"""The two passes behind :func:`compute_pair_cooccurrence` agree bit for bit.

``compute_pair_cooccurrence`` picks the reduce pass (expand the comparisons
once, sort, reduce, gather the request) or pair-major (row intersection)
from a cost estimate of its inputs; no argument selects one.  These tests
force each pass by patching the two constants of that estimate and assert
that, on every input the public entry point accepts, both give
``np.array_equal`` arrays that are ``np.allclose`` to a per-pair Python
oracle reading the same CSR, at any chunk bound — and that the estimate
itself lands on the expected side for a one-insert streaming delta and for a
full live candidate set.  Block preparation runs the same reduce pass on its
membership matrix and hands the aggregates forward: they equal the kernel's,
the kernel is not called again, and a key space past the bit budget of
:mod:`repro.pairs` is refused loudly, not silently.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pairs as pairs
import repro.weights.sparse as sparse
from repro.blocking import prepare_blocks
from repro.datamodel import Block, BlockCollection, EntityIndexSpace
from repro.datasets import load_benchmark, load_dirty_dataset
from repro.datasets.registry import DIRTY_ORDER
from repro.incremental import MutableBlockIndex
from repro.weights import BlockStatistics, build_entity_block_csr
from repro.weights.sparse import (
    PairCooccurrence,
    compute_pair_cooccurrence,
    plan_block_major,
)

from reference import forced_cooccurrence_pass as forced, pair_tuples, reference_block_sets

pytestmark = pytest.mark.equivalence


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


def assert_paths_agree(csr, inverse_cardinalities, inverse_sizes, left, right, sides):
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    args = (csr, inverse_cardinalities, inverse_sizes, left, right, sides)
    with forced("pair-major"):
        assert left.size == 0 or plan_block_major(csr, left, right, sides) is None
        pair_major = compute_pair_cooccurrence(*args)
    with forced("reduce"):
        reduced = compute_pair_cooccurrence(*args)
        chunked = [compute_pair_cooccurrence(*args, chunk_pairs=bound) for bound in (3, 64)]
    expected = oracle(*args[:5])
    for name, reference in zip(PairCooccurrence._fields, expected):
        assert np.array_equal(getattr(reduced, name), getattr(pair_major, name)), name
        for other in chunked:
            assert np.array_equal(getattr(other, name), getattr(pair_major, name)), name
        np.testing.assert_allclose(
            getattr(pair_major, name), reference, rtol=1e-12, atol=0, err_msg=name
        )
    return reduced


def reducible_pairs(left, right, sides):
    """The request positions the side-aware expansion can vouch for."""
    second = np.asarray(sides) == 1
    cross = second[left] != second[right]
    return cross if cross.any() else left != right


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
        stats.csr(),
        stats.inverse_block_cardinalities,
        stats.inverse_block_sizes,
        left,
        right,
        stats.sides,
    )


@given(data=collections_and_pairs())
@settings(max_examples=60, deadline=None)
def test_block_major_really_runs_on_distinct_canonical_requests(data):
    """The forcing above is not vacuous: a clean request gets a plan for
    whatever the expansion can vouch for — its cross-side pairs when it has
    any, every pair otherwise — and leaves exactly the rest to pair-major."""
    blocks, pairs = data
    distinct = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j}, reverse=True)
    stats = BlockStatistics(blocks)
    csr = stats.csr()
    left = np.array([i for i, _ in distinct], dtype=np.int64)
    right = np.array([j for _, j in distinct], dtype=np.int64)
    served = reducible_pairs(left, right, stats.sides) if distinct else np.zeros(0, dtype=bool)
    touched = int(np.diff(csr.indptr)[np.concatenate((left[served], right[served]))].sum())
    with forced("reduce"):
        plan = plan_block_major(csr, left, right, stats.sides) if distinct else None
    assert (plan is not None) == (touched > 0)
    if plan is not None:
        positions = np.arange(left.size) if plan.positions is None else plan.positions
        assert np.array_equal(positions, np.flatnonzero(served))
        assert plan.keys.shape == positions.shape
        assert np.all(np.diff(plan.block_of) >= 0)
        # within a block: first side ahead of second, ranks ascending
        assert np.all((np.diff(plan.nodes) > 0) | (np.diff(plan.block_of) > 0))


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
    """Removes and updates leave tombstoned CSR rows and the two sides
    interleave in node-id space; both passes agree on the live candidates and
    on arbitrary pairs of slots (tombstoned, same-side, self, repeated)."""
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
    args = (
        index.csr(),
        index._inverse_block_cardinalities.view(),
        index._inverse_block_sizes.view(),
    )
    assert_paths_agree(*args, candidates.left, candidates.right, index.sides())
    slots = np.arange(index.num_slots)
    anything = (
        np.concatenate((candidates.right[::-1], slots, slots[::-1], slots[:3])),
        np.concatenate((candidates.left[::-1], slots, np.roll(slots, 1), slots[:3])),
    )
    assert_paths_agree(*args, *anything, index.sides())


def test_empty_inputs():
    space = EntityIndexSpace(4)
    none = np.empty(0, dtype=np.int64)
    for blocks in ([], [Block("a", [0, 1, 2])]):
        stats = BlockStatistics(BlockCollection(blocks, space))
        args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
        assert assert_paths_agree(*args, none, none, stats.sides).common.shape == (0,)
    # pairs requested of a collection without a single membership
    stats = BlockStatistics(BlockCollection([Block("empty", [])], space))
    result = compute_pair_cooccurrence(
        stats.csr(),
        stats.inverse_block_cardinalities,
        stats.inverse_block_sizes,
        np.array([0, 1]),
        np.array([2, 3]),
        stats.sides,
    )
    assert result.common.tolist() == [0.0, 0.0]


def test_duplicates_self_pairs_and_orientation_through_the_entry_point():
    blocks = BlockCollection(
        [Block("a", [0, 1, 2]), Block("b", [1, 2, 3]), Block("c", [2, 3])],
        EntityIndexSpace(4),
    )
    stats = BlockStatistics(blocks)
    args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
    sides = stats.sides

    def run(left, right):
        return compute_pair_cooccurrence(*args, np.array(left), np.array(right), sides)

    with forced("reduce"):
        reversed_pairs = run([2, 3, 1], [1, 2, 0])
        # duplicates are gathered out of the one reduction like any pair ...
        assert plan_block_major(stats.csr(), np.array([1, 1]), np.array([2, 2]), sides).positions is None
        duplicated = run([1, 2, 1], [2, 1, 2])
        # ... a self-pair is no comparison: it is left to pair-major
        mixed = plan_block_major(stats.csr(), np.array([1, 2]), np.array([2, 2]), sides)
        assert mixed.positions.tolist() == [0]
        assert plan_block_major(stats.csr(), np.array([2]), np.array([2]), sides) is None
        self_pair = run([2], [2])
        with_self = run([1, 2, 3], [2, 2, 2])
    assert reversed_pairs.common.tolist() == [2.0, 2.0, 1.0]
    assert duplicated.common.tolist() == [2.0, 2.0, 2.0]
    assert self_pair.common.tolist() == [3.0]
    assert with_self.common.tolist() == [2.0, 3.0, 2.0]


def test_key_space_overflow_falls_back_to_pair_major():
    """The packed ``(rank, rank, block id)`` keys must fit the bit budget."""
    csr = build_entity_block_csr(
        BlockCollection([Block("a", [0, 1, 2])], EntityIndexSpace(3))
    )
    left, right, sides = np.array([0, 0, 1]), np.array([1, 2, 2]), np.zeros(3, dtype=np.int8)
    with forced("reduce"):
        assert plan_block_major(csr, left, right, sides) is not None
        huge = sparse.EntityBlockCSR(csr.indptr, csr.indices, num_blocks=1 << 62)
        assert plan_block_major(huge, left, right, sides) is None


def test_bit_budget_fields():
    assert pairs.key_field_bits(1 << 21, 1 << 21, 1 << 20) == (21, 21, 20)
    assert pairs.key_field_bits(1 << 21, 1 << 21, (1 << 20) + 1) is None  # D2M scale
    assert pairs.key_field_bits(0, 1, 2, 3) == (1, 1, 1, 2)
    with pytest.raises(OverflowError, match="do not fit"):
        pairs.distinct_pair_keys(*(np.empty(0, dtype=np.int64),) * 3, np.zeros(1, dtype=np.int64), 1 << 32, 8)


def _collections(name, scale):
    if name in DIRTY_ORDER:
        return load_dirty_dataset(name, seed=11, scale=scale).collection, None
    dataset = load_benchmark(name, seed=11, scale=scale)
    return dataset.first, dataset.second


@pytest.mark.parametrize("name", ["DblpAcm", "D10K"])
def test_refused_keys_change_the_path_not_the_result(name):
    """Both refusals, forced by shrinking the budget: the kernel takes
    pair-major, ``prepare_blocks`` hands forward pairs without aggregates —
    and every number equals the unpatched run's."""
    collections = _collections(name, 0.05)
    expected = prepare_blocks(*collections)
    assert expected.cooccurrence is not None
    stats = expected.statistics()
    left, right = expected.candidates.left, expected.candidates.right
    total = expected.candidates.index_space.total
    # one bit short of (left, right, block id): room for every two-field key
    # — (signature, node), (node, block rank), (left, right) — not for that one
    short = sum(pairs.key_field_bits(total, total, len(expected.blocks))) - 1
    with mock.patch.object(pairs, "KEY_BITS", short):
        refused = prepare_blocks(*collections)
        assert refused.cooccurrence is None
        assert plan_block_major(stats.csr(), left, right, stats.sides) is None
        computed = refused.statistics().pair_cooccurrence(refused.candidates)
    assert np.array_equal(refused.candidates.left, left)
    assert np.array_equal(refused.candidates.right, right)
    assert plan_block_major(stats.csr(), left, right, stats.sides) is not None
    for ours, theirs in zip(computed, expected.cooccurrence):
        assert np.array_equal(ours, theirs)


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
    plan = plan_block_major(index.csr(), full.left, full.right, index.sides())
    # every live pair is cross-side, and exactly the live first x second
    # comparisons are expanded: no same-side pair, no tombstoned row
    assert plan is not None and plan.positions is None
    assert int(plan.repeats.sum()) == index.total_cardinality

    delta = index.delta_candidate_set(index.add_entity(profile, side=0))
    try:
        assert len(delta) > 20
        assert plan_block_major(index.csr(), delta.left, delta.right, index.sides()) is None
    finally:
        index.remove_entity(profile.entity_id, side=0)


def test_slices_of_a_candidate_set_equal_the_whole(dblpacm_dataset):
    """A pair's aggregates depend only on its own CSR rows: any pair range
    gives the same rows as the whole set."""
    prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
    stats = prepared.statistics()
    left, right = prepared.candidates.left, prepared.candidates.right
    args = (stats.csr(), stats.inverse_block_cardinalities, stats.inverse_block_sizes)
    assert plan_block_major(stats.csr(), left, right, stats.sides) is not None
    whole = compute_pair_cooccurrence(*args, left, right, stats.sides)
    with forced("pair-major"):
        pair_major = compute_pair_cooccurrence(*args, left, right, stats.sides)
    cut = left.size // 3
    parts = [
        compute_pair_cooccurrence(*args, left[:cut], right[:cut], stats.sides),
        compute_pair_cooccurrence(*args, left[cut:], right[cut:], stats.sides),
    ]
    for name in PairCooccurrence._fields:
        assert np.array_equal(getattr(whole, name), getattr(pair_major, name))
        joined = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(joined, getattr(whole, name))


# -- the hand-off ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["DblpAcm", "AbtBuy", "D10K"])
def test_prepared_aggregates_equal_the_kernel_and_do_not_call_it(name, monkeypatch):
    prepared = prepare_blocks(*_collections(name, 0.1))
    candidates = prepared.candidates
    expected = BlockStatistics(prepared.blocks).pair_cooccurrence(candidates)

    def refuse(*args, **kwargs):
        raise AssertionError("the handed-forward aggregates were not used")

    monkeypatch.setattr(sparse, "compute_pair_cooccurrence", refuse)
    handed = prepared.statistics().pair_cooccurrence(candidates)
    assert handed is prepared.cooccurrence
    assert len(candidates) > 1000
    for ours, theirs in zip(handed, expected):
        assert np.array_equal(ours, theirs)


def test_stranded_blocks_put_same_side_pairs_among_the_candidates():
    """Block Filtering empties the second side of a clean-clean block: its
    first-side members become candidates whose shared blocks include cross
    blocks the expansion never lists for them — patched by row intersection,
    in the preparation and in the kernel alike."""
    from repro.datamodel import collection_from_dicts

    def collection(name, texts):
        rows = [{"id": f"{name}{i}", "text": text} for i, text in enumerate(texts)]
        return collection_from_dicts(rows, id_field="id", name=name)

    # b0 drops its largest block "v", stranding {a0, a1}; they still share
    # the cross block "s" with each other (and with b0)
    first = collection("a", ["v s w", "v p s", "r"])
    second = collection("b", ["r v p s w"])
    prepared = prepare_blocks(first, second, filtering_ratio=0.8, apply_purging=False)
    candidates = prepared.candidates
    assert (0, 1) in pair_tuples(candidates)
    stats = BlockStatistics(prepared.blocks)
    shared = reference_block_sets(prepared.blocks).of_node
    kinds = {prepared.blocks[b].is_bilateral for b in shared[0] & shared[1]}
    assert kinds == {True, False}
    assert_paths_agree(
        stats.csr(),
        stats.inverse_block_cardinalities,
        stats.inverse_block_sizes,
        candidates.left,
        candidates.right,
        stats.sides,
    )
    with forced("pair-major"):
        expected = stats.pair_cooccurrence(candidates)
    for ours, theirs in zip(prepared.cooccurrence, expected):
        assert np.array_equal(ours, theirs)
