"""Delta-shipped reads: protocol units, ships across growth and the router.

Covers the three layers of the delta read path separately from the
consistency property suite:

* every ship a worker sends — full, then deltas across inserts that grow
  every array many times over — rebuilds exactly the worker's own state;
* :meth:`MutableBlockIndex.export_delta` is all-or-nothing: stale or
  consumed epochs and untracked indexes all refuse to ship a delta (forcing
  a full ship) instead of shipping a wrong one;
* :class:`ShardRouter` keeps resident per-shard views, ships deltas on warm
  reads — under a quarter of a full ship's bytes at a few hundred
  entities — full states on first contact and after a respawn, and records
  the byte/read counters the stats panel renders.
"""

import numpy as np
import pytest

from reference import make_frozen_model, reference_retained
from repro.datamodel import make_profile
from repro.datasets import load_benchmark
from repro.incremental import MatchingSession
from repro.incremental.index import MutableBlockIndex
from repro.obs.registry import MetricsRegistry
from repro.obs.render import render_stats
from repro.incremental.state import IndexState
from repro.serve.router import ShardRouter, match_answer
from repro.serve.workers import ShardReplica, ShardWorkerHandle, WorkerError

MODEL = make_frozen_model()


class TestShipsAcrossGrowth:
    def test_every_read_equals_the_worker_side_state(self, tmp_path):
        """A full ship, then a delta per insert across 40 inserts that grow
        every array far past its first size: after each one the resident
        state equals ``export_state()`` of the same shard replayed here."""
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        handle = None
        replica = ShardReplica(tmp_path, 0, 1)
        resident = IndexState()
        try:
            session.insert(make_profile("a0", text="alpha beta"), side=0)
            session.insert(make_profile("b0", text="alpha beta"), side=1)
            handle = ShardWorkerHandle(tmp_path, 0, 1)
            base = None
            for serial in range(1, 41):
                ship = handle.read_state(session.wal.log_offset, base=base)
                assert ship["kind"] == ("full" if base is None else "delta")
                if base is None:
                    resident.apply_full(ship["arrays"], ship["meta"])
                else:
                    resident.apply_delta(ship["arrays"], ship["meta"])
                base = {"lineage": ship["meta"]["lineage"], "epoch": resident.epoch}
                replica.catch_up(session.wal.log_offset)
                expected, held = replica.index.export_state(), resident.export_state()
                assert held["meta"] == expected["meta"]
                for name, array in expected["arrays"].items():
                    assert np.array_equal(held["arrays"][name], array), name
                session.insert(
                    make_profile(f"a{serial}", text=f"alpha tok{serial}"), side=0
                )
        finally:
            if handle is not None:
                handle.stop()
            replica.close()
            session.close()


class TestExportDeltaContract:
    def _index(self):
        index = MutableBlockIndex(bilateral=True, name="unit")
        index._apply_insert("a0", 0, ["alpha", "beta"])
        index._apply_insert("b0", 1, ["alpha"])
        return index

    def test_untracked_index_refuses_to_ship(self):
        index = self._index()
        assert index.export_delta(index.epoch) is None

    def test_stale_epoch_refuses_to_ship(self):
        index = self._index()
        epoch = index.enable_delta_tracking()
        assert index.export_delta(epoch - 1) is None
        assert index.export_delta(epoch + 1) is None

    def test_consumed_epoch_refuses_to_ship(self):
        index = self._index()
        epoch = index.enable_delta_tracking()
        index._apply_insert("a1", 0, ["beta"])
        delta = index.export_delta(epoch)
        assert delta is not None and delta["meta"]["kind"] == "delta"
        # the export rebased the tracker: the old epoch is consumed, only
        # the new one ships
        assert index.export_delta(epoch) is None
        assert index.export_delta(delta["meta"]["epoch"]) is not None

    def test_the_wire_format_is_spelled_out_here_once_more(self):
        """The schema table derives these; a worker and a router of different
        trees interoperate only while they stay exactly this."""
        index = self._index()
        index.enable_delta_tracking()
        index._apply_insert("a1", 0, ["beta"])
        full, delta = index.export_state(), index.export_delta(index.epoch - 1)
        scalars = {"bilateral", "num_slots", "num_blocks", "side_counts", "epoch", "kind"}
        assert set(full["meta"]) == scalars
        assert set(delta["meta"]) == scalars | {"base_epoch"}
        assert {name: array.dtype.str for name, array in full["arrays"].items()} == {
            "indptr": "<i8", "indices": "<i8", "sides": "|i1",
        }
        assert {name: array.dtype.str for name, array in delta["arrays"].items()} == {
            "indptr_tail": "<i8", "indices_tail": "<i8", "sides_tail": "|i1",
            "tombstoned_nodes": "<i8",
        }

    def test_a_delta_tombstones_only_the_slots_its_base_held(self):
        index = self._index()
        epoch = index.enable_delta_tracking()
        index._apply_insert("a1", 0, ["beta"])
        index.remove_entity("a1", side=0)
        index.remove_entity("a0", side=0)
        delta = index.export_delta(epoch)
        # a1 was born after the base: its -1 side flag rides in the tail
        assert delta["arrays"]["tombstoned_nodes"].tolist() == [0]  # a0
        assert delta["arrays"]["sides_tail"].tolist() == [-1]


class TestRouterResidentViews:
    def _counters(self, metrics):
        return metrics.snapshot()["counters"]

    def test_warm_reads_ship_deltas_and_respawn_reships_full(self, tmp_path):
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        metrics = MetricsRegistry()
        router = ShardRouter(
            tmp_path, 2, session.index.entity_id, metrics=metrics
        )
        router.offset_source = lambda: session.wal.log_offset
        try:
            for serial, text in enumerate(
                ("alpha beta", "beta gamma", "alpha gamma")
            ):
                session.insert(make_profile(f"a{serial}", text=text), side=0)
                session.insert(make_profile(f"b{serial}", text=text), side=1)
            router.start()

            view, _, _ = router.pinned_view()
            counters = self._counters(metrics)
            assert counters["full_reads"] == 2
            assert counters.get("delta_reads", 0) == 0
            reference = reference_retained(session)
            assert match_answer(view, MODEL, session.pruning)["retained"] == reference

            session.insert(make_profile("a9", text="beta gamma"), side=0)
            view, _, _ = router.pinned_view()
            counters = self._counters(metrics)
            assert counters["full_reads"] == 2
            assert counters["delta_reads"] == 2
            assert counters["read_bytes_delta"] < counters["read_bytes_full"]
            assert counters["read_bytes_shipped"] == (
                counters["read_bytes_full"] + counters["read_bytes_delta"]
            )
            reference = reference_retained(session)
            assert match_answer(view, MODEL, session.pruning)["retained"] == reference

            # a respawned worker holds no shipped base: its shard must ship
            # full again while the untouched shard keeps shipping deltas
            assert router.respawn(0) is not None
            view, _, _ = router.pinned_view()
            counters = self._counters(metrics)
            assert counters["full_reads"] == 3
            assert counters["delta_reads"] == 3
            assert match_answer(view, MODEL, session.pruning)["retained"] == reference
        finally:
            router.stop()
            session.close()

    def test_a_failed_apply_never_advances_the_handshake(self, tmp_path, monkeypatch):
        """A delta refused by a desynchronisation check must leave nothing
        behind the next read could be shipped a delta against: the epoch
        lives in the state and is adopted only after the checks, and the
        router drops the shard's resident state."""
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        metrics = MetricsRegistry()
        router = ShardRouter(tmp_path, 2, session.index.entity_id, metrics=metrics)
        router.offset_source = lambda: session.wal.log_offset
        try:
            for serial, text in enumerate(("alpha beta", "beta gamma", "alpha gamma")):
                session.insert(make_profile(f"a{serial}", text=text), side=0)
                session.insert(make_profile(f"b{serial}", text=text), side=1)
            router.start()
            router.pinned_view()
            assert self._counters(metrics)["full_reads"] == 2

            session.insert(make_profile("a9", text="beta gamma"), side=0)
            materialize = ShardWorkerHandle.materialize

            def forged(payload, shard):
                state = materialize(payload, shard)
                if shard == 1:
                    assert state["kind"] == "delta"
                    # both tokens of the insert hash to shard 1: its new CSR
                    # row arrives one membership short of its row pointer
                    assert state["arrays"]["indices_tail"].size == 2
                    state["arrays"]["indices_tail"] = state["arrays"]["indices_tail"][:-1]
                return state

            monkeypatch.setattr(ShardWorkerHandle, "materialize", staticmethod(forged))
            with pytest.raises(WorkerError, match="CSR rows ending at"):
                router.pinned_view()
            monkeypatch.undo()

            # shard 0's delta applied and its worker rebased: an (empty) delta
            # again; shard 1 holds nothing any more: exactly one full ship
            before = self._counters(metrics)
            view, _, _ = router.pinned_view()
            after = self._counters(metrics)
            assert after["full_reads"] - before["full_reads"] == 1
            assert after["delta_reads"] - before.get("delta_reads", 0) == 1
            assert (
                match_answer(view, MODEL, session.pruning)["retained"]
                == reference_retained(session)
            )
        finally:
            router.stop()
            session.close()

    def test_a_warm_delta_read_ships_under_a_quarter_of_a_full_ship(self, tmp_path):
        """Delta bytes stay O(changed) while a full ship grows with the
        state: one insert into a few hundred entities, read warm, ships
        under a quarter of what both shards' full ships of that same state
        weigh (forced by respawning both workers)."""
        dataset = load_benchmark("DblpAcm", seed=0, scale=0.05)
        first, second = list(dataset.first), list(dataset.second)
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        metrics = MetricsRegistry()
        router = ShardRouter(tmp_path, 2, session.index.entity_id, metrics=metrics)
        router.offset_source = lambda: session.wal.log_offset
        try:
            session.insert_bulk(first[:-1], side=0)
            session.insert_bulk(second, side=1)
            router.start()
            router.pinned_view()
            session.insert(first[-1], side=0)
            before = self._counters(metrics)
            router.pinned_view()
            warm = self._counters(metrics)
            assert warm["delta_reads"] - before.get("delta_reads", 0) == 2
            delta_bytes = warm["read_bytes_delta"] - before.get("read_bytes_delta", 0)
            for shard in range(2):
                assert router.respawn(shard) is not None
            view, _, _ = router.pinned_view()
            after = self._counters(metrics)
            assert after["full_reads"] - warm["full_reads"] == 2
            full_bytes = after["read_bytes_full"] - warm["read_bytes_full"]
            assert delta_bytes < full_bytes / 4, (delta_bytes, full_bytes)
            assert (
                match_answer(view, MODEL, session.pruning)["retained"]
                == reference_retained(session)
            )
        finally:
            router.stop()
            session.close()

    def test_render_stats_shows_the_shipping_panel(self):
        metrics = MetricsRegistry()
        metrics.increment("full_reads", 2)
        metrics.increment("delta_reads", 6)
        metrics.increment("read_bytes_shipped", 1000)
        metrics.increment("read_bytes_full", 900)
        metrics.increment("read_bytes_delta", 100)
        rendered = render_stats({"metrics": metrics.snapshot()})
        assert "read shipping: 6 delta / 2 full (75.0% delta hit rate)" in rendered
        assert "1000 bytes shipped (100 delta, 900 full)" in rendered
