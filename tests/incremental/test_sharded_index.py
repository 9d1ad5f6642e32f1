"""Equivalence tests for signature sharding and ``compact()``.

K shard replicas following the log of a :class:`MutableBlockIndex` fed any
interleaving of add/remove/update/bulk — the construction the serving fleet
runs — read through a :class:`~repro.incremental.MergedIndexView`, must
expose the same aggregate contract as the index itself: identical node
numbering, identical distinct-pair sets, matching per-entity/global
aggregates and co-occurrence aggregates.  ``compact()`` must bound memory (no
tombstoned slots, no retracted registry positions) while leaving the
canonical view untouched, and replicas adopting a checkpoint of the compacted
index keep its canonical pairs.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import merged_replicas
from repro.datamodel import make_profile
from repro.incremental import MutableBlockIndex
from repro.incremental.sharded import shard_of_signature, stable_hash
from repro.persistence import WriteAheadLog, write_index_snapshot

WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)

SLOW_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def churn_scripts(draw, bilateral):
    """A random interleaving of inserts, bulk loads, removals and updates."""
    steps = []
    live = []
    counter = 0
    for _ in range(draw(st.integers(3, 12))):
        kind = draw(st.sampled_from(("add", "bulk", "remove", "update")))
        side = draw(st.integers(0, 1)) if bilateral else 0
        if kind in ("remove", "update") and not live:
            kind = "add"
        if kind == "add":
            tokens = draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=5))
            steps.append(("add", f"e{counter}", side, tokens))
            live.append((f"e{counter}", side))
            counter += 1
        elif kind == "bulk":
            size = draw(st.integers(1, 4))
            batch = []
            for _ in range(size):
                tokens = draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=5))
                batch.append((f"e{counter}", tokens))
                live.append((f"e{counter}", side))
                counter += 1
            steps.append(("bulk", batch, side))
        elif kind == "remove":
            target = draw(st.sampled_from(live))
            live.remove(target)
            steps.append(("remove", target[0], target[1]))
        else:
            target = draw(st.sampled_from(live))
            tokens = draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=5))
            steps.append(("update", target[0], target[1], tokens))
    return steps


def apply_script(index, steps):
    for step in steps:
        if step[0] == "add":
            _, entity_id, side, tokens = step
            index.add_entity(make_profile(entity_id, t=" ".join(tokens)), side=side)
        elif step[0] == "bulk":
            _, batch, side = step
            index.add_entities_bulk(
                [make_profile(eid, t=" ".join(tokens)) for eid, tokens in batch],
                side=side,
            )
        elif step[0] == "remove":
            _, entity_id, side = step
            index.remove_entity(entity_id, side=side)
        else:
            _, entity_id, side, tokens = step
            index.update_entity(make_profile(entity_id, t=" ".join(tokens)), side=side)


class JournaledIndex:
    """A plain index journaling to a log in a fresh temporary directory, read
    back through shard replicas of that log; the replicas, the log and the
    directory go on exit."""

    def __init__(self, bilateral=False):
        self.directory = Path(tempfile.mkdtemp())
        self.wal = WriteAheadLog(self.directory, sync="batch")
        self.index = MutableBlockIndex(bilateral=bilateral)
        self.index.attach_wal(self.wal)
        self.replicas = []

    def merged(self, num_shards):
        """K fresh replicas caught up to the log's end, merged."""
        view, replicas = merged_replicas(self.wal, self.index, num_shards)
        self.replicas += replicas
        return view

    def compact(self):
        """Compact the index and checkpoint it: a fresh replica adopts the
        compacted node space rather than replay the log's older one."""
        self.index.compact()
        write_index_snapshot(self.index, self.wal)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for replica in self.replicas:
            replica.close()
        self.wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def pairs_of(candidates):
    return set(zip(candidates.left.tolist(), candidates.right.tolist()))


def pair_set(index):
    return pairs_of(index.candidate_set())


def assert_same_contract(single, sharded):
    assert sharded.num_entities == single.num_entities
    assert sharded.num_slots == single.num_slots
    assert np.array_equal(sharded.canonical_node_ids(), single.canonical_node_ids())
    assert pair_set(sharded) == pair_set(single)
    assert len(sharded.candidate_set()) == single.num_pairs

    stats_single, stats_sharded = single.statistics(), sharded.statistics()
    assert stats_sharded.num_blocks == stats_single.num_blocks
    assert stats_sharded.total_cardinality == stats_single.total_cardinality
    assert stats_sharded.block_totals() == stats_single.block_totals()
    # both derived from the same rows: the counts exactly, the reciprocal sums
    # up to the order shard-major block ids add them in
    for attribute in ("blocks_per_entity", "entity_cardinality"):
        assert np.array_equal(
            getattr(stats_sharded, attribute), getattr(stats_single, attribute)
        ), attribute
    for attribute in ("entity_inv_cardinality", "entity_inv_size"):
        assert np.allclose(
            getattr(stats_sharded, attribute), getattr(stats_single, attribute)
        ), attribute
    assert np.array_equal(
        stats_sharded.local_candidate_counts_sparse(), single._degrees.view()
    )

    candidates = sharded.candidate_set()
    if len(candidates):
        agg_single = stats_single.pair_cooccurrence(candidates)
        agg_sharded = stats_sharded.pair_cooccurrence(candidates)
        assert np.array_equal(agg_single.common, agg_sharded.common)
        assert np.allclose(
            agg_single.sum_inverse_cardinality, agg_sharded.sum_inverse_cardinality
        )
        assert np.allclose(agg_single.sum_inverse_size, agg_sharded.sum_inverse_size)

    snap_single = {
        (b.key, tuple(b.entities_first), tuple(b.entities_second))
        for b in single.snapshot_blocks()
    }
    snap_sharded = {
        (b.key, tuple(b.entities_first), tuple(b.entities_second))
        for shard in sharded.shards
        for b in shard.snapshot_blocks()
    }
    assert snap_single == snap_sharded


@SLOW_SETTINGS
@given(data=st.data(), bilateral=st.booleans(), num_shards=st.sampled_from((2, 3)))
def test_sharded_matches_unsharded_under_churn(data, bilateral, num_shards):
    steps = data.draw(churn_scripts(bilateral))
    with JournaledIndex(bilateral) as journaled:
        single = journaled.index
        apply_script(single, steps)
        assert_same_contract(single, journaled.merged(num_shards))

        # replicas adopting a checkpoint of the compacted index keep its
        # canonical pairs
        canonical = pairs_of(single.candidate_set().canonical)
        journaled.compact()
        adopted = journaled.merged(num_shards)
        replicas = journaled.replicas[-num_shards:]
        assert all(replica.adopted_sequence is not None for replica in replicas)
        assert adopted.num_slots == adopted.num_entities
        assert pairs_of(adopted.candidate_set().canonical) == canonical


def test_stable_hash_is_process_independent():
    # frozen values: a salted hash would break cross-run reproducibility
    assert stable_hash("apple") == 2838417488
    assert shard_of_signature("apple", 4) == stable_hash("apple") % 4


def test_shard_assignment_is_a_pure_function_of_the_signature():
    for num_shards in (1, 2, 3, 7):
        owners = [shard_of_signature(word, num_shards) for word in WORDS]
        assert owners == [shard_of_signature(word, num_shards) for word in WORDS]
        assert all(0 <= owner < num_shards for owner in owners)


def test_bulk_load_matches_per_entity_inserts():
    """A logged bulk load reaches the replicas as one insert at a time does."""
    profiles = [
        make_profile(f"e{i}", t=" ".join(WORDS[i % len(WORDS)] for _ in range(3)))
        for i in range(20)
    ]
    with JournaledIndex() as one_by_one, JournaledIndex() as bulk:
        for profile in profiles:
            one_by_one.index.add_entity(profile)
        bulk.index.add_entities_bulk(profiles)
        merged_one_by_one, merged_bulk = one_by_one.merged(2), bulk.merged(2)
        assert pair_set(merged_one_by_one) == pair_set(merged_bulk)
        assert merged_one_by_one.num_blocks == merged_bulk.num_blocks


class TestCompactChurn:
    """Satellite: ``compact()`` bounds long-lived high-churn sessions."""

    def _churned_index(self):
        rng = np.random.default_rng(5)
        index = MutableBlockIndex(bilateral=True)
        for i in range(120):
            tokens = rng.choice(WORDS, size=int(rng.integers(1, 5)))
            index.add_entity(
                make_profile(f"e{i}", t=" ".join(tokens)), side=int(i % 2)
            )
        for i in range(0, 120, 2):  # heavy churn: retract half of everything
            index.remove_entity(f"e{i}", side=int(i % 2))
        return index

    def test_compact_bounds_memory(self):
        index = self._churned_index()
        assert index.num_slots > index.num_entities
        pairs = index.num_pairs
        index.compact()
        # bounded: no tombstoned slots, and the live pairs are unchanged
        assert index.num_slots == index.num_entities
        assert index.num_pairs == len(index.candidate_set()) == pairs

    def test_compact_preserves_the_canonical_view(self):
        index = self._churned_index()
        canonical = index.canonical_node_ids()
        live = canonical >= 0
        order = np.argsort(canonical[live])
        before_pairs = pairs_of(index.candidate_set().canonical)
        stats = index.statistics()
        before = {
            "num_blocks": stats.num_blocks,
            "total_cardinality": stats.total_cardinality,
            "blocks_per_entity": stats.blocks_per_entity[live][order].copy(),
            "entity_inv_cardinality": stats.entity_inv_cardinality[live][order].copy(),
            "degrees": stats.local_candidate_counts_sparse()[live][order].copy(),
        }
        snapshot_before = {
            (b.key, tuple(b.entities_first), tuple(b.entities_second))
            for b in index.snapshot_blocks()
        }

        index.compact()

        assert pairs_of(index.candidate_set().canonical) == before_pairs
        canonical2 = index.canonical_node_ids()
        live2 = canonical2 >= 0
        order2 = np.argsort(canonical2[live2])
        stats2 = index.statistics()
        assert stats2.num_blocks == before["num_blocks"]
        assert stats2.total_cardinality == before["total_cardinality"]
        assert np.allclose(
            stats2.blocks_per_entity[live2][order2], before["blocks_per_entity"]
        )
        assert np.allclose(
            stats2.entity_inv_cardinality[live2][order2],
            before["entity_inv_cardinality"],
        )
        assert np.allclose(
            stats2.local_candidate_counts_sparse()[live2][order2], before["degrees"]
        )
        snapshot_after = {
            (b.key, tuple(b.entities_first), tuple(b.entities_second))
            for b in index.snapshot_blocks()
        }
        assert snapshot_before == snapshot_after

    def test_compact_then_mutate(self):
        index = self._churned_index()
        index.compact()
        delta = index.add_entity(make_profile("fresh", t="apple phone"), side=0)
        assert delta.node == index.num_slots - 1
        index.remove_entity("fresh", side=0)
        index.compact()
        assert index.num_slots == index.num_entities
        with pytest.raises(KeyError):
            index.node_of("fresh", side=0)
