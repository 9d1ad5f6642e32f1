"""Churn property test: any dynamic interleaving converges to batch.

Hypothesis generates random *operation sequences* — single inserts, bulk
loads, removals and in-place updates — over small entity collections.  After
replaying the sequence through a :class:`MatchingSession`, the exact
finalisation must retain exactly the pairs the batch pipeline retains on the
final live collection (survivors in arrival order, updates re-appending),
for **every** pruning algorithm including the cardinality-based CEP/CNP/RCNP
whose probability ties are broken deterministically by packed candidate key.

A shadow model tracks the live entities per side; the batch side is built
from it after the replay, with the block cleaning the model records — the
paper's pipeline or raw blocks, both parametrisations run.  Both sides share the deterministic frozen
classifier of ``test_session_property`` (rounded probabilities, so streaming
and batch score every pair bit-identically).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import prepare_blocks
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import MatchingSession

from reference import CLEANINGS, batch_retained_ids
from test_session_property import (
    PRUNING,
    _collection,
    _frozen_model,
    _oracle,
    _profile_strategy,
)


def _operations(bilateral):
    sides = st.sampled_from((0, 1)) if bilateral else st.just(0)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), sides, _profile_strategy()),
            st.tuples(
                st.just("bulk"),
                sides,
                st.lists(_profile_strategy(), min_size=1, max_size=3),
            ),
            st.tuples(st.just("remove"), sides, st.integers(0, 32)),
            st.tuples(
                st.just("update"), sides, st.integers(0, 32), _profile_strategy()
            ),
        ),
        min_size=1,
        max_size=14,
    )


class _Shadow:
    """The live collection a churn replay should end in, per side."""

    def __init__(self):
        self.live = ([], [])  # (entity_id, text) in arrival order, per side
        self._serial = 0

    def fresh_id(self, side):
        self._serial += 1
        return f"{'ab'[side]}{self._serial}"

    def victim(self, side, pick):
        entries = self.live[side]
        if not entries:
            return None
        return entries[pick % len(entries)]

    def add(self, side, entity_id, text):
        self.live[side].append((entity_id, text))

    def remove(self, side, entity_id):
        self.live[side][:] = [
            entry for entry in self.live[side] if entry[0] != entity_id
        ]


def _replay(session, shadow, operations):
    """Apply a generated operation sequence to both session and shadow."""
    for operation in operations:
        kind, side = operation[0], operation[1]
        if kind == "add":
            entity_id = shadow.fresh_id(side)
            session.insert(make_profile(entity_id, text=operation[2]), side=side)
            shadow.add(side, entity_id, operation[2])
        elif kind == "bulk":
            profiles = []
            for text in operation[2]:
                entity_id = shadow.fresh_id(side)
                profiles.append(make_profile(entity_id, text=text))
                shadow.add(side, entity_id, text)
            session.insert_bulk(profiles, side=side)
        elif kind == "remove":
            victim = shadow.victim(side, operation[2])
            if victim is None:
                continue
            session.remove(victim[0], side=side)
            shadow.remove(side, victim[0])
        else:  # update: retract + re-insert under the same id, new text
            victim = shadow.victim(side, operation[2])
            if victim is None:
                continue
            session.update(make_profile(victim[0], text=operation[3]), side=side)
            shadow.remove(side, victim[0])
            shadow.add(side, victim[0], operation[3])


def _final_collections(shadow, bilateral):
    first = EntityCollection(
        [make_profile(entity_id, text=text) for entity_id, text in shadow.live[0]],
        name="churn-first",
        is_clean=bilateral,
    )
    if not bilateral:
        return first, None
    second = EntityCollection(
        [make_profile(entity_id, text=text) for entity_id, text in shadow.live[1]],
        name="churn-second",
    )
    return first, second


def _assert_converges(session, shadow, bilateral, pruning, model, cleaning):
    streamed = {frozenset(pair) for pair in session.retained().retained_ids}
    first, second = _final_collections(shadow, bilateral)
    if len(first) == 0 and (second is None or len(second) == 0):
        assert streamed == set()
        return
    prepared = prepare_blocks(first, second, **_oracle(cleaning))
    size_first = len(first)

    def id_of(node):
        if node < size_first:
            return first[node].entity_id
        return second[node - size_first].entity_id

    batch = batch_retained_ids(
        prepared.blocks, prepared.candidates, model, pruning, id_of
    )
    assert streamed == batch


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(max_examples=60, deadline=None)
@given(operations=_operations(bilateral=True), pruning=st.sampled_from(PRUNING))
def test_bilateral_churn_converges_to_batch(cleaning, operations, pruning):
    model = _frozen_model(cleaning)
    session = MatchingSession(model, bilateral=True, pruning=pruning)
    shadow = _Shadow()
    _replay(session, shadow, operations)
    _assert_converges(session, shadow, True, pruning, model, cleaning)


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(max_examples=60, deadline=None)
@given(operations=_operations(bilateral=False), pruning=st.sampled_from(PRUNING))
def test_unilateral_churn_converges_to_batch(cleaning, operations, pruning):
    model = _frozen_model(cleaning)
    session = MatchingSession(model, bilateral=False, pruning=pruning)
    shadow = _Shadow()
    _replay(session, shadow, operations)
    _assert_converges(session, shadow, False, pruning, model, cleaning)


def test_remove_everything_leaves_an_empty_answer():
    """Retracting every streamed entity must leave no candidates behind."""
    model = _frozen_model()
    session = MatchingSession(model, bilateral=True, pruning="CEP")
    first = _collection("a", ["alpha beta", "alpha", "beta gamma"])
    second = _collection("b", ["alpha gamma", "beta"])
    for profile in first:
        session.insert(profile, side=0)
    for profile in second:
        session.insert(profile, side=1)
    assert session.num_pairs > 0
    for profile in first:
        session.remove(profile.entity_id, side=0)
    for profile in second:
        session.remove(profile.entity_id, side=1)
    assert session.num_entities == 0
    assert session.num_pairs == 0
    final = session.retained()
    assert final.retained_count == 0
    assert len(final.candidates) == 0
    # the index is still serviceable after total retraction
    session.insert(make_profile("a-new", text="alpha beta"), side=0)
    session.insert(make_profile("b-new", text="alpha"), side=1)
    assert session.num_pairs == 1
