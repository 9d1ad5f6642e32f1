"""Delta-advanced read views: protocol units and ships across growth.

Covers the two layers of the delta read path separately from the
consistency property suite:

* every advance of the daemon's read view — full, then deltas across
  inserts that grow every array many times over — rebuilds exactly the
  authority's own state;
* the view is built whole once, then moves by deltas of O(changed) bytes:
  an advance with no write between is an empty delta at the same state, a
  remove tombstones the view's slot, and a view whose epoch another export
  consumed is rebuilt whole;
* :meth:`MutableBlockIndex.export_delta` is all-or-nothing: stale or
  consumed epochs and untracked indexes all refuse to ship a delta (forcing
  a full ship) instead of shipping a wrong one.
"""

import numpy as np

from reference import make_frozen_model, reference_retained
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.datasets import load_benchmark
from repro.incremental.index import MutableBlockIndex
from repro.serve.router import ReadView, SharedRead, match_answer

MODEL = make_frozen_model()
TEXTS = ("alpha beta", "beta gamma", "alpha gamma")


def _seeded_session():
    session = MatchingSession(MODEL, bilateral=True)
    for serial, text in enumerate(TEXTS):
        session.insert(make_profile(f"a{serial}", text=text), side=0)
        session.insert(make_profile(f"b{serial}", text=text), side=1)
    return session


def _assert_same_state(held, authority):
    # looked up on the class: not an export :func:`_recorded_exports` counts
    expected, shipped = type(authority).export_state(authority), held.export_state()
    assert shipped["meta"] == expected["meta"]
    for name, array in expected["arrays"].items():
        assert np.array_equal(shipped["arrays"][name], array), name


def _recorded_exports(index):
    """Every export ``index`` hands out from now on, as ``(kind, bytes)``."""
    exports = []
    for name in ("export_state", "export_delta"):
        exported = getattr(index, name)

        def recording(*args, exported=exported):
            ship = exported(*args)
            if ship is not None:
                size = sum(array.nbytes for array in ship["arrays"].values())
                exports.append((ship["meta"]["kind"], size))
            return ship

        setattr(index, name, recording)
    return exports


def _answers_as_the_session(view, session):
    assert match_answer(
        view, session.index.entity_id, MODEL, session.pruning
    )["retained"] == reference_retained(session)


class TestShipsAcrossGrowth:
    def test_every_read_equals_the_authority_state(self):
        """A full ship, then a delta per insert across 40 inserts that grow
        every array far past its first size: after each one the view's
        state equals ``export_state()`` of the authority it follows, and it
        stays one object."""
        session = MatchingSession(MODEL, bilateral=True)
        view = ReadView(session.index)
        session.insert(make_profile("a0", text="alpha beta"), side=0)
        session.insert(make_profile("b0", text="alpha beta"), side=1)
        first = view.advance()
        for serial in range(1, 41):
            held = view.advance()
            assert held is first
            expected, shipped = session.index.export_state(), held.export_state()
            assert shipped["meta"] == expected["meta"]
            for name, array in expected["arrays"].items():
                assert np.array_equal(shipped["arrays"][name], array), name
            session.insert(make_profile(f"a{serial}", text=f"alpha tok{serial}"), side=0)
        assert match_answer(
            view.advance(), session.index.entity_id, MODEL, session.pruning
        )["retained"] == reference_retained(session)


class TestReadView:
    def test_the_first_advance_builds_the_view_whole_and_tracks_deltas_from_it(self):
        session = _seeded_session()
        index = session.index
        view = ReadView(index)
        assert view.state is None
        # nothing tracks the authority's changes before the first read
        assert index.export_delta(index.epoch) is None
        exports = _recorded_exports(index)
        first = view.advance()
        assert view.state is first and [kind for kind, _ in exports] == ["full"]
        _assert_same_state(first, index)
        session.insert(make_profile("a9", text="beta gamma"), side=0)
        assert view.advance() is first
        assert [kind for kind, _ in exports] == ["full", "delta"]
        _assert_same_state(first, index)
        _answers_as_the_session(first, session)

    def test_an_empty_index_advances_to_an_empty_view_and_grows_by_deltas(self):
        session = MatchingSession(MODEL, bilateral=True)
        view = ReadView(session.index)
        empty = view.advance()
        assert empty.num_slots == 0 and empty.num_blocks == 0
        assert match_answer(empty, session.index.entity_id, MODEL, session.pruning) == {
            "num_candidates": 0, "retained": [],
        }
        exports = _recorded_exports(session.index)
        for serial, text in enumerate(TEXTS):
            session.insert(make_profile(f"a{serial}", text=text), side=0)
            session.insert(make_profile(f"b{serial}", text=text), side=1)
            assert view.advance() is empty
        assert [kind for kind, _ in exports] == ["delta"] * len(TEXTS)
        _assert_same_state(empty, session.index)
        _answers_as_the_session(empty, session)

    def test_an_advance_without_a_write_is_an_empty_delta_at_the_same_state(self):
        """So the exact read of the last advance is the next one's too."""
        session = _seeded_session()
        view = ReadView(session.index)
        state = view.advance()
        epoch = state.epoch
        shared = SharedRead()
        read = shared.compute(state, MODEL, session.pruning)
        exports = _recorded_exports(session.index)
        assert view.advance() is state and state.epoch == epoch
        assert exports == [("delta", 0)]
        assert shared.held(state) is read

    def test_a_remove_between_advances_tombstones_the_view(self):
        session = _seeded_session()
        view = ReadView(session.index)
        state = view.advance()
        node = session.index.node_of("b1", side=1)
        assert state.is_live(node)
        session.remove("b1", side=1)
        assert view.advance() is state
        assert not state.is_live(node) and state.sides()[node] == -1
        _assert_same_state(state, session.index)
        retained = match_answer(state, session.index.entity_id, MODEL, session.pruning)["retained"]
        assert not any("b1" in pair[:2] for pair in retained)
        _answers_as_the_session(state, session)

    def test_a_view_whose_epoch_another_export_consumed_is_rebuilt_whole(self):
        """The authority tracks one reader: an export the view did not make
        rebases the tracker, the view's next delta is refused and it ships
        the state full into a new view."""
        session = _seeded_session()
        index = session.index
        view = ReadView(index)
        held = view.advance()
        session.insert(make_profile("a9", text="beta gamma"), side=0)
        assert index.export_delta(held.epoch) is not None
        exports = _recorded_exports(index)
        rebuilt = view.advance()
        assert rebuilt is not held and view.state is rebuilt
        assert [kind for kind, _ in exports] == ["full"]
        _assert_same_state(rebuilt, index)
        _answers_as_the_session(rebuilt, session)
        # and the rebuilt view is tracked again
        session.insert(make_profile("b9", text="alpha beta"), side=1)
        assert view.advance() is rebuilt
        assert [kind for kind, _ in exports] == ["full", "delta"]

    def test_a_warm_advance_moves_under_a_quarter_of_a_full_export(self):
        """Delta bytes stay O(changed) while a full export grows with the
        state: one insert into a few hundred entities moves under a quarter
        of what the full export of that same state weighs."""
        dataset = load_benchmark("DblpAcm", seed=0, scale=0.05)
        first, second = list(dataset.first), list(dataset.second)
        session = MatchingSession(MODEL, bilateral=True)
        session.insert_bulk(first[:-1], side=0)
        session.insert_bulk(second, side=1)
        view = ReadView(session.index)
        state = view.advance()
        session.insert(first[-1], side=0)
        exports = _recorded_exports(session.index)
        assert view.advance() is state
        session.index.export_state()
        ((delta, delta_bytes), (full, full_bytes)) = exports
        assert (delta, full) == ("delta", "full")
        assert delta_bytes < full_bytes / 4, (delta_bytes, full_bytes)
        _answers_as_the_session(state, session)


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
