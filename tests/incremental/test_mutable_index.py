"""Unit tests for the incrementally maintained block index.

The invariant under test: a :class:`MutableBlockIndex` fed entities one at a
time exposes exactly the statistics :class:`BlockStatistics` computes on the
batch block collection built from the same final data (with the batch-only
purging/filtering steps disabled).
"""

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.core import FeatureVectorGenerator
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import (
    DeltaFeatureGenerator,
    DuplicateEntityError,
    MutableBlockIndex,
    UnknownEntityError,
    interleave_profiles,
)
from repro.weights import BlockStatistics, PAPER_FEATURES


def _profiles(rows):
    return [make_profile(entity_id, text=text) for entity_id, text in rows]


@pytest.fixture()
def small_stream():
    """A tiny bilateral stream with shared, unique and absent tokens."""
    first = _profiles(
        [("a1", "apple phone"), ("a2", "samsung phone"), ("a3", "unique1"), ("a4", "")]
    )
    second = _profiles(
        [("b1", "apple handset"), ("b2", "samsung phone case"), ("b3", "unique2")]
    )
    return first, second


def _batch_node_mapper(index, first, second):
    size_first = len(first)

    def to_batch(node):
        entity_id = index.entity_id(node)
        if index.side_of(node) == 0:
            return first.index_of(entity_id)
        return size_first + second.index_of(entity_id)

    return to_batch


def _assert_matches_batch(index, first, second):
    """Compare the index against the batch pipeline on the final data."""
    prepared = prepare_blocks(
        first, second, apply_purging=False, apply_filtering=False
    )
    stats = BlockStatistics(prepared.blocks)
    to_batch = _batch_node_mapper(index, first, second) if second is not None else int

    # candidate pairs
    candidates = index.candidate_set()
    streamed = {
        tuple(sorted((to_batch(int(i)), to_batch(int(j)))))
        for i, j in zip(candidates.left, candidates.right)
    }
    batch = set(zip(prepared.candidates.left.tolist(), prepared.candidates.right.tolist()))
    assert streamed == batch

    # global aggregates
    assert index.num_nonempty_blocks == len(prepared.blocks)
    assert index.total_cardinality == prepared.blocks.total_comparisons()
    assert (
        index.statistics().block_totals().assignments
        == prepared.blocks.total_block_assignments()
    )

    # per-entity aggregates
    view = index.statistics()
    node_map = np.array([to_batch(node) for node in range(index.num_entities)])
    np.testing.assert_allclose(view.blocks_per_entity, stats.blocks_per_entity[node_map])
    np.testing.assert_allclose(view.entity_cardinality, stats.entity_cardinality[node_map])
    np.testing.assert_allclose(
        view.entity_inv_cardinality, stats.entity_inv_cardinality[node_map]
    )
    np.testing.assert_allclose(view.entity_inv_size, stats.entity_inv_size[node_map])
    np.testing.assert_allclose(
        view.local_candidate_counts_sparse(), stats.local_candidate_counts()[node_map]
    )

    # full feature matrices
    if len(candidates):
        streamed_matrix = DeltaFeatureGenerator(index, PAPER_FEATURES).generate(candidates)
        batch_matrix = FeatureVectorGenerator(PAPER_FEATURES).generate(
            prepared.candidates, stats
        )
        position = prepared.candidates.position_index()
        rows = np.array(
            [
                position[tuple(sorted((to_batch(int(i)), to_batch(int(j)))))]
                for i, j in zip(candidates.left, candidates.right)
            ]
        )
        np.testing.assert_allclose(
            streamed_matrix.values, batch_matrix.values[rows], rtol=1e-9, atol=1e-12
        )


class TestBilateralIndex:
    def test_matches_batch_on_interleaved_stream(self, small_stream):
        first_profiles, second_profiles = small_stream
        first = EntityCollection(first_profiles, name="s1")
        second = EntityCollection(second_profiles, name="s2")
        index = MutableBlockIndex(bilateral=True)
        for profile, side in interleave_profiles(first, second):
            index.add_entity(profile, side=side)
        _assert_matches_batch(index, first, second)

    def test_delta_reports_only_new_pairs(self, small_stream):
        first_profiles, second_profiles = small_stream
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(first_profiles[0], side=0)  # apple phone
        delta = index.add_entity(second_profiles[0], side=1)  # apple handset
        assert delta.num_new_pairs == 1
        assert delta.counterparts.tolist() == [0]
        delta = index.add_entity(second_profiles[1], side=1)  # samsung phone case
        assert delta.num_new_pairs == 1  # shares only "phone" with a1
        delta = index.add_entity(first_profiles[1], side=0)  # samsung phone
        assert delta.num_new_pairs == 1  # shares samsung+phone with b2 only
        assert delta.counterparts.tolist() == [2]

    def test_empty_profile_introduces_nothing(self, small_stream):
        first_profiles, second_profiles = small_stream
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(first_profiles[0], side=0)
        delta = index.add_entity(make_profile("empty"), side=1)
        assert delta.num_new_pairs == 0
        assert delta.block_ids.size == 0
        assert index.num_pairs == 0

    def test_one_sided_block_spawns_no_pairs(self):
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(make_profile("a1", text="solo"), side=0)
        delta = index.add_entity(make_profile("a2", text="solo"), side=0)
        assert delta.num_new_pairs == 0
        assert index.num_nonempty_blocks == 0
        # the first opposite-side member flips the block to comparison-spawning
        delta = index.add_entity(make_profile("b1", text="solo"), side=1)
        assert delta.num_new_pairs == 2
        assert index.num_nonempty_blocks == 1

    def test_duplicate_entity_id_rejected_per_side(self):
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(make_profile("x", text="token"), side=0)
        with pytest.raises(ValueError, match="duplicate entity_id"):
            index.add_entity(make_profile("x", text="other"), side=0)

    def test_same_id_on_both_sides_is_allowed(self):
        """Clean-Clean sources number their entities independently."""
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(make_profile("1", text="apple phone"), side=0)
        delta = index.add_entity(make_profile("1", text="apple phone"), side=1)
        assert delta.num_new_pairs == 1
        assert index.node_of("1", side=0) == 0
        assert index.node_of("1", side=1) == 1
        assert index.has_entity("1", side=0) and index.has_entity("1", side=1)
        assert not index.has_entity("2", side=0)

    def test_side_validation(self):
        unilateral = MutableBlockIndex(bilateral=False)
        with pytest.raises(ValueError, match="bilateral"):
            unilateral.add_entity(make_profile("x", text="t"), side=1)
        with pytest.raises(ValueError, match="side"):
            MutableBlockIndex(bilateral=True).add_entity(
                make_profile("y", text="t"), side=2
            )


def _assert_matches_batch_canonical(index, first, second):
    """Compare a (possibly churned) index against batch on the live data.

    Unlike :func:`_assert_matches_batch`, node ids are bridged through
    :meth:`MutableBlockIndex.canonical_node_ids` — the compact batch
    numbering of the live survivors — so the comparison works after
    removals, updates and bulk loads.
    """
    prepared = prepare_blocks(
        first, second, apply_purging=False, apply_filtering=False
    )
    stats = BlockStatistics(prepared.blocks)
    canonical = index.canonical_node_ids()

    candidates = index.candidate_set().canonical
    streamed = set(zip(candidates.left.tolist(), candidates.right.tolist()))
    batch = set(
        zip(prepared.candidates.left.tolist(), prepared.candidates.right.tolist())
    )
    assert streamed == batch

    assert index.num_nonempty_blocks == len(prepared.blocks)
    assert index.total_cardinality == prepared.blocks.total_comparisons()
    assert (
        index.statistics().block_totals().assignments
        == prepared.blocks.total_block_assignments()
    )

    live = np.flatnonzero(canonical >= 0)
    order = live[np.argsort(canonical[live])]
    view = index.statistics()
    np.testing.assert_allclose(
        view.blocks_per_entity[order], stats.blocks_per_entity, atol=1e-9
    )
    np.testing.assert_allclose(
        view.entity_cardinality[order], stats.entity_cardinality, atol=1e-9
    )
    np.testing.assert_allclose(
        view.entity_inv_cardinality[order], stats.entity_inv_cardinality, atol=1e-9
    )
    np.testing.assert_allclose(
        view.entity_inv_size[order], stats.entity_inv_size, atol=1e-9
    )
    np.testing.assert_allclose(
        view.local_candidate_counts_sparse()[order],
        stats.local_candidate_counts(),
        atol=1e-9,
    )

    snapshot = {
        (block.key, tuple(block.entities_first), tuple(block.entities_second))
        for block in index.snapshot_blocks()
    }
    batch_blocks = {
        (block.key, tuple(block.entities_first), tuple(block.entities_second))
        for block in prepared.blocks
    }
    assert snapshot == batch_blocks


class TestDynamicIndex:
    """Removal, update and bulk-load behaviour of the fully dynamic index."""

    def _collection(self, prefix, rows, is_clean=True):
        return EntityCollection(
            _profiles([(f"{prefix}{k}", text) for k, text in enumerate(rows)]),
            name=prefix,
            is_clean=is_clean,
        )

    def test_removal_reverses_the_insert_exactly(self, small_stream):
        """Insert A+B, remove B -> identical aggregates to inserting A only."""
        first_profiles, second_profiles = small_stream
        churned = MutableBlockIndex(bilateral=True)
        for profile in first_profiles:
            churned.add_entity(profile, side=0)
        for profile in second_profiles:
            churned.add_entity(profile, side=1)
        for profile in second_profiles:
            churned.remove_entity(profile.entity_id, side=1)
        churned.remove_entity(first_profiles[1].entity_id, side=0)

        survivors = [p for p in first_profiles if p.entity_id != first_profiles[1].entity_id]
        first = EntityCollection(survivors, name="s1")
        second = EntityCollection([], name="s2")
        _assert_matches_batch_canonical(churned, first, second)

    def test_update_changes_the_entity_signature(self):
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(make_profile("a1", text="apple phone"), side=0)
        index.add_entity(make_profile("b1", text="apple handset"), side=1)
        assert index.num_pairs == 1
        delta = index.update_entity(make_profile("a1", text="handset"), side=0)
        assert delta.retraction.num_retracted_pairs == 1
        assert delta.insert.num_new_pairs == 1
        # fresh node id, arrival order re-entered at the end
        assert delta.insert.node != delta.retraction.node
        assert index.num_pairs == 1
        assert index.num_entities == 2
        first = EntityCollection([make_profile("a1", text="handset")], name="f")
        second = EntityCollection([make_profile("b1", text="apple handset")], name="s")
        _assert_matches_batch_canonical(index, first, second)

    def test_retraction_delta_reports_dead_pairs(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="red widget"))
        index.add_entity(make_profile("d2", text="red"))
        index.add_entity(make_profile("d3", text="widget blue"))
        assert index.num_pairs == 2
        retraction = index.remove_entity("d1")
        assert retraction.num_retracted_pairs == 2
        assert sorted(retraction.counterparts.tolist()) == [1, 2]
        assert index.num_pairs == 0
        # degrees fully reversed
        np.testing.assert_allclose(
            index.statistics().local_candidate_counts_sparse(), 0.0
        )

    def test_unknown_entity_raises_named_error_without_corruption(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="solo token"))
        before = index.total_cardinality, index.num_pairs, index.num_entities
        with pytest.raises(UnknownEntityError, match="ghost"):
            index.remove_entity("ghost")
        with pytest.raises(UnknownEntityError, match="ghost"):
            index.node_of("ghost")
        assert (index.total_cardinality, index.num_pairs, index.num_entities) == before
        # removing twice raises on the second attempt, leaving state intact
        index.remove_entity("d1")
        with pytest.raises(UnknownEntityError):
            index.remove_entity("d1")

    def test_duplicate_insert_raises_named_error(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="token"))
        with pytest.raises(DuplicateEntityError, match="duplicate entity_id"):
            index.add_entity(make_profile("d1", text="other"))
        with pytest.raises(DuplicateEntityError):
            index.add_entities_bulk([make_profile("d1", text="other")])
        with pytest.raises(DuplicateEntityError):
            index.add_entities_bulk(
                [make_profile("d9", text="x"), make_profile("d9", text="y")]
            )
        # removal re-opens the id
        index.remove_entity("d1")
        delta = index.add_entity(make_profile("d1", text="token"))
        assert delta.node == 1

    def test_bulk_load_equals_sequential_inserts(self, small_stream):
        first_profiles, second_profiles = small_stream
        sequential = MutableBlockIndex(bilateral=True)
        sequential.add_entities(first_profiles, side=0)
        sequential.add_entities(second_profiles, side=1)

        bulk = MutableBlockIndex(bilateral=True)
        delta_first = bulk.add_entities_bulk(first_profiles, side=0)
        delta_second = bulk.add_entities_bulk(second_profiles, side=1)
        assert delta_first.nodes.tolist() == list(range(len(first_profiles)))
        assert (
            delta_first.num_new_pairs + delta_second.num_new_pairs
            == sequential.num_pairs
        )

        assert bulk.num_pairs == sequential.num_pairs
        assert bulk.total_cardinality == sequential.total_cardinality
        assert bulk.num_nonempty_blocks == sequential.num_nonempty_blocks
        assert bulk.statistics().block_totals() == sequential.statistics().block_totals()
        bulk_pairs = bulk.candidate_set()
        seq_pairs = sequential.candidate_set()
        assert set(zip(bulk_pairs.left.tolist(), bulk_pairs.right.tolist())) == set(
            zip(seq_pairs.left.tolist(), seq_pairs.right.tolist())
        )
        # derived from identical rows: the same bits
        for name in (
            "blocks_per_entity",
            "entity_cardinality",
            "entity_inv_cardinality",
            "entity_inv_size",
        ):
            np.testing.assert_array_equal(
                getattr(bulk.statistics(), name),
                getattr(sequential.statistics(), name),
                err_msg=name,
            )
        np.testing.assert_array_equal(bulk._degrees.view(), sequential._degrees.view())
        # CSR rows identical (same per-row sorted block ids)
        np.testing.assert_array_equal(
            bulk.csr().indptr, sequential.csr().indptr
        )
        np.testing.assert_array_equal(
            bulk.csr().indices, sequential.csr().indices
        )

    def test_bulk_load_matches_batch_after_churn(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entities_bulk(
            _profiles([("d1", "red widget"), ("d2", "red deluxe"), ("d3", "blue")])
        )
        index.remove_entity("d2")
        index.add_entities_bulk(
            _profiles([("d4", "red blue widget"), ("d5", "deluxe")])
        )
        index.update_entity(make_profile("d3", text="blue deluxe"))
        live = EntityCollection(
            _profiles(
                [
                    ("d1", "red widget"),
                    ("d4", "red blue widget"),
                    ("d5", "deluxe"),
                    ("d3", "blue deluxe"),
                ]
            ),
            name="dirty",
            is_clean=False,
        )
        _assert_matches_batch_canonical(index, live, None)

    def test_bulk_load_of_empty_batch_is_a_no_op(self):
        index = MutableBlockIndex(bilateral=False)
        delta = index.add_entities_bulk([])
        assert delta.num_new_pairs == 0
        assert delta.nodes.size == 0
        assert index.num_entities == 0

    def test_live_bookkeeping_after_churn(self):
        index = MutableBlockIndex(bilateral=True)
        index.add_entity(make_profile("a1", text="x y"), side=0)
        index.add_entity(make_profile("b1", text="y z"), side=1)
        index.remove_entity("a1", side=0)
        assert index.num_entities == 1
        assert index.num_slots == 2
        assert not index.has_entity("a1", side=0)
        assert not index.is_live(0)
        assert index.is_live(1)
        assert index.side_of(0) == -1
        space = index.index_space()
        assert (space.size_first, space.size_second) == (0, 1)
        canonical = index.canonical_node_ids()
        assert canonical.tolist() == [-1, 0]


class TestUnilateralIndex:
    def test_matches_batch_on_dirty_stream(self):
        profiles = _profiles(
            [
                ("d1", "red widget deluxe"),
                ("d2", "red widget"),
                ("d3", "blue widget"),
                ("d4", "singleton token"),
                ("d5", ""),
                ("d6", "red deluxe"),
            ]
        )
        collection = EntityCollection(profiles, name="dirty", is_clean=False)
        index = MutableBlockIndex(bilateral=False)
        deltas = index.add_entities(collection)
        assert len(deltas) == len(profiles)
        _assert_matches_batch(index, collection, None)

    def test_singleton_block_counts_nothing_until_second_member(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="rare"))
        assert index.num_nonempty_blocks == 0
        assert index.statistics().blocks_per_entity[0] == 0.0
        index.add_entity(make_profile("d2", text="rare"))
        assert index.num_nonempty_blocks == 1
        view = index.statistics()
        np.testing.assert_allclose(view.blocks_per_entity[:2], [1.0, 1.0])
        np.testing.assert_allclose(view.entity_inv_cardinality[:2], [1.0, 1.0])

    def test_snapshot_blocks_match_batch_collection(self):
        profiles = _profiles([("d1", "a b"), ("d2", "b c"), ("d3", "c a")])
        collection = EntityCollection(profiles, name="dirty", is_clean=False)
        index = MutableBlockIndex(bilateral=False)
        index.add_entities(collection)
        snapshot = index.snapshot_blocks()
        prepared = prepare_blocks(
            collection, None, apply_purging=False, apply_filtering=False
        )
        streamed = {
            (block.key, tuple(block.entities_first), tuple(block.entities_second))
            for block in snapshot
        }
        batch = {
            (block.key, tuple(block.entities_first), tuple(block.entities_second))
            for block in prepared.blocks
        }
        assert streamed == batch

    def test_csr_rows_are_sorted(self):
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="zeta alpha midway"))
        index.add_entity(make_profile("d2", text="midway zeta"))
        csr = index.csr()
        for node in range(index.num_entities):
            row = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
            assert np.all(np.diff(row) > 0)


class TestPairKeyOverflow:
    """Node ids at or past 2^32 must raise instead of silently colliding.

    ``pack_pair_keys`` packs a pair as ``left << 32 | right``; ids past the
    32-bit bound would alias other pairs' keys and silently corrupt the
    candidate registry (the regression this class pins down).
    """

    def test_vectorized_pack_raises_at_the_bound(self):
        from repro.incremental.index import pack_pair_keys

        ok = pack_pair_keys(
            np.array([0, (1 << 32) - 1]), np.array([1, (1 << 32) - 1])
        )
        assert ok.dtype == np.int64 and ok.size == 2
        with pytest.raises(OverflowError, match="2\\^32"):
            pack_pair_keys(np.array([1 << 32]), np.array([5]))
        with pytest.raises(OverflowError):
            pack_pair_keys(np.array([5]), np.array([1 << 32, 7]))

    def test_insert_path_raises_with_forged_large_node_ids(self, monkeypatch):
        """An index whose slot counter reached 2^32 refuses further inserts."""
        index = MutableBlockIndex(bilateral=False)
        index.add_entity(make_profile("d1", text="alpha"))
        monkeypatch.setattr(
            MutableBlockIndex,
            "num_slots",
            property(lambda self: 1 << 32),
        )
        with pytest.raises(OverflowError, match="compact"):
            index.add_entity(make_profile("d2", text="alpha"))

    def test_removal_path_raises_at_the_bound(self, monkeypatch):
        """``remove_entity`` looks its retracted pairs up by the keys
        ``pack_pair_keys`` packs, and inherits its refusal (the bound is
        lowered here: an index of 2^32 slots does not fit a test)."""
        index = MutableBlockIndex(bilateral=False)
        for serial in range(3):
            index.add_entity(make_profile(f"d{serial}", text="alpha"))
        monkeypatch.setattr("repro.pairs.MAX_NODE_ID", 2)
        with pytest.raises(OverflowError, match="compact"):
            index.remove_entity("d0")

    def test_bulk_path_raises_when_the_batch_crosses_the_bound(self, monkeypatch):
        index = MutableBlockIndex(bilateral=False)
        monkeypatch.setattr(
            MutableBlockIndex,
            "num_slots",
            property(lambda self: (1 << 32) - 1),
        )
        with pytest.raises(OverflowError, match="2\\^32"):
            index.add_entities_bulk(
                [make_profile("d1", text="alpha"), make_profile("d2", text="alpha")]
            )
