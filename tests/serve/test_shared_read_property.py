"""Property tests: one exact read per pinned state, and ``top_k`` selects from it.

The daemon's read thread keeps the last exact read
(:class:`~repro.serve.router.SharedRead`) and reuses it for a ``match`` or
``top_k`` whose advanced view is at the same state.  Two properties hold
that in place:

* **selection = the subset path.**  Over random interleavings of add,
  remove, update and bulk, with both block cleanings, the ``top_k`` of
  every live node selected from the shared read of the view advanced to
  each state is byte-identical to the way ``top_k`` was computed before it
  selected: the node's counterparts read off the cleaned CSR, only those
  pairs scored (``tests/reference.py::reference_top_k``);
* **reuse never crosses a state change.**  Writes, ``match``, ``top_k`` and
  a shard worker killed and respawned between two reads, against a live
  daemon: every answer equals the canonical session replayed to the offset
  it reports, a read whose offset moved since the read before it computes
  its own (``shared: false`` on its answer span), and a read directly
  behind one at the same offset reuses it — a respawned worker moves
  nothing a read uses.
"""

import json
import shutil
import tempfile
import threading
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import CLEANINGS, make_frozen_model, reference_retained, reference_top_k
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.obs import events as obs_events
from repro.obs import read_events
from repro.serve import MatchingDaemon, ServeClient
from repro.serve.router import ReadView, SharedRead, top_k_answer
from repro.serve.workers import WalRecordFollower

from test_consistency_property import _operations, _stream

pytestmark = pytest.mark.equivalence

MODEL = make_frozen_model()
MODELS = {name: make_frozen_model(cleaning=cleaning) for name, cleaning in CLEANINGS.items()}
_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
_text = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join)


def _wire(matches):
    return json.dumps(matches, sort_keys=True)


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(max_examples=25, deadline=None)
@given(operations=_operations())
def test_top_k_from_the_shared_read_is_the_subset_computation(cleaning, operations):
    model = MODELS[cleaning]
    session = MatchingSession(model, bilateral=True)
    view = ReadView(session.index)
    entity_id = session.index.entity_id
    for _ in chain([None], _stream(session, operations)):
        state = view.advance()
        read = SharedRead().compute(state, model, session.pruning)
        for node in np.flatnonzero(state.sides() >= 0).tolist():
            for k in (2, state.num_slots):
                assert _wire(top_k_answer(state, entity_id, model, node, k, read)) == _wire(
                    reference_top_k(session.index, model, node, k)
                ), (session.index.epoch, node, k)


def _steps():
    """Writes and runs of reads: a run is 1-3 of ``match`` / ``top_k``, with
    a worker killed and respawned anywhere in it."""
    sides = st.sampled_from((0, 1))
    read = st.one_of(
        st.tuples(st.just("match")),
        st.tuples(st.just("top_k"), sides, st.integers(0, 32), st.integers(0, 4)),
        st.tuples(st.just("respawn"), st.sampled_from((0, 1))),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), sides, _text),
            st.tuples(st.just("bulk"), sides, st.lists(_text, min_size=1, max_size=3)),
            st.tuples(st.just("remove"), sides, st.integers(0, 32)),
            st.tuples(st.just("update"), sides, st.integers(0, 32), _text),
            st.lists(read, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=12,
    ).map(lambda steps: [step for group in steps for step in _flat(group)])


def _flat(group):
    return group if isinstance(group, list) else [group]


def _canonical_session(wal_dir, offsets):
    """The canonical session at each offset, ascending, replayed forward
    from the log (the authority's node space)."""
    session = MatchingSession(MODEL, bilateral=True)
    follower = WalRecordFollower(wal_dir / "wal.log")
    try:
        for offset in sorted(set(offsets)):
            for record in follower.advance_to(offset):
                session._replay_record(record)
            yield offset, session
    finally:
        follower.close()


def _answer_span(tree):
    """``(shared tag, child names)`` of a read's answer span."""
    if tree.get("name") in ("score-and-prune", "score-top-k"):
        return tree["tags"]["shared"], [child["name"] for child in tree.get("children", ())]
    for child in tree.get("children", ()):
        found = _answer_span(child)
        if found is not None:
            return found
    return None


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=_steps())
def test_a_read_is_shared_only_at_the_state_it_was_computed_at(steps):
    tmp = Path(tempfile.mkdtemp())
    daemon = MatchingDaemon(
        tmp / "wal", MODEL, num_shards=2, bilateral=True, event_log=tmp / "events"
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    reads = []
    try:
        assert daemon.ready.wait(60), "daemon did not come up"
        live = ([], [])
        serial = 0
        last_offset = None  # no read yet: the first one computes
        with ServeClient(*daemon.address) as client:
            for step in steps:
                kind = step[0]
                if kind in ("add", "bulk"):
                    side = step[1]
                    texts = [step[2]] if kind == "add" else step[2]
                    profiles = []
                    for text in texts:
                        serial += 1
                        profiles.append(make_profile(f"{'ab'[side]}{serial}", text=text))
                        live[side].append(profiles[-1].entity_id)
                    if kind == "add":
                        client.insert(profiles[0], side=side)
                    else:
                        client.insert_bulk(profiles, side=side)
                elif kind in ("remove", "update"):
                    side = step[1]
                    if not live[side]:
                        continue
                    entity_id = live[side][step[2] % len(live[side])]
                    if kind == "remove":
                        client.remove(entity_id, side=side)
                        live[side].remove(entity_id)
                    else:
                        client.update(make_profile(entity_id, text=step[3]), side=side)
                elif kind == "respawn":
                    assert daemon.router.respawn(step[1]) is not None
                else:
                    if kind == "match":
                        answer, query = client.match(), None
                    else:
                        side = step[1]
                        if not live[side]:
                            continue
                        entity_id = live[side][step[2] % len(live[side])]
                        answer = client.top_k(entity_id, side=side, k=step[3])
                        query = (side, entity_id, step[3])
                    assert "degraded" not in answer
                    expected_shared = answer["offset"] == last_offset
                    reads.append((client.last_trace_id, answer, query, expected_shared))
                    last_offset = answer["offset"]
    finally:
        daemon.request_shutdown()
        thread.join(60)
        obs_events.configure(None)
    try:
        assert not thread.is_alive(), "daemon did not shut down"
        spans = {
            event["trace"]: event["spans"]
            for event in read_events(tmp / "events")
            if event["type"] == "request"
        }
        canonical = {}
        for offset, session in _canonical_session(
            tmp / "wal", [answer["offset"] for _, answer, _, _ in reads]
        ):
            for trace_id, answer, query, _ in reads:
                if answer["offset"] != offset:
                    continue
                if query is None:
                    canonical[trace_id] = reference_retained(session)
                else:
                    side, entity_id, k = query
                    node = session.index.node_of(entity_id, side=side)
                    canonical[trace_id] = reference_top_k(session.index, MODEL, node, k)
        for trace_id, answer, query, expected_shared in reads:
            got = answer["retained"] if query is None else answer["matches"]
            assert _wire(got) == _wire(canonical[trace_id]), (answer["offset"], query)
            shared, children = _answer_span(spans[trace_id])
            assert shared is expected_shared, (answer["offset"], query)
            computed = [] if shared else ["merge-pairs", "features", "score", "prune"]
            assert children == computed + ([] if query is None else ["select"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
