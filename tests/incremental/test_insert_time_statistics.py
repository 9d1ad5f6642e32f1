"""An insert's statistics are derived from the rows it scores, whatever the path.

A streamed insert scores its raw candidate delta against the writer's
*insert-time read* (:meth:`MutableBlockIndex.insert_statistics`): the
per-entity aggregates summed over the CSR rows of the delta's endpoints, from
the writer's per-block vectors.  Nothing is carried from one mutation to the
next, so:

* after every insert, bulk load and update of any interleaving of those with
  removals, ``compact()`` and snapshot recovery, the insert-time ``|B_i|``,
  ``||e_i||``, ``Σ 1/||b||``, ``Σ 1/|b|`` — and ``|B|``, ``||B||``, LCP and
  the pairs' co-occurrence — at the scored rows are *equal*, bit for bit, to
  the exact read without cleaning (``statistics(NO_CLEANING)``) at those rows;
* a session recovered from a snapshot scores its next insert bit-identically
  to the uninterrupted session, under an unrounded classifier;
* blocks that spawn no comparison (one member, or one side of a bilateral
  block) are masked out of the sums, as the exact read drops them;
* no insert, update or bulk load reads the whole collection.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking.cleaning import NO_CLEANING
from repro.core.features import FeatureVectorGenerator
from repro.datamodel import make_profile
from repro.incremental import MatchingSession, MutableBlockIndex
from repro.incremental import state as state_module
from repro.ml import LogisticRegression
from repro.ml.base import FrozenModel

from test_sharded_index import WORDS, churn_scripts

#: every scheme family, so all four per-entity aggregates and LCP are read
FEATURE_SET = ("CF-IBF", "RACCB", "JS", "LCP", "EJS", "WJS", "RS", "NRS")
AGGREGATES = ("blocks_per_entity", "entity_cardinality", "entity_inv_cardinality", "entity_inv_size")


def _unrounded_model() -> FrozenModel:
    """A trained classifier whose probabilities change with the last bit of
    any feature."""
    width = len(FeatureVectorGenerator(FEATURE_SET).columns)
    features = np.random.default_rng(7).random((80, width))
    labels = (features.sum(axis=1) > width / 2).astype(int)
    return FrozenModel(LogisticRegression().fit(features, labels), None, FEATURE_SET)


MODEL = _unrounded_model()


def _assert_insert_time_equals_exact(index, candidates, statistics):
    rows = np.unique(np.concatenate((candidates.left, candidates.right)))
    exact = index.statistics(NO_CLEANING)
    for name in AGGREGATES:
        assert np.array_equal(getattr(statistics, name)[rows], getattr(exact, name)[rows]), name
    assert (statistics.num_blocks, statistics.total_cardinality) == (
        exact.num_blocks,
        exact.total_cardinality,
    )
    assert np.array_equal(
        statistics.local_candidate_counts_sparse()[rows],
        exact.local_candidate_counts_sparse()[rows],
    )
    if len(candidates):
        for ours, theirs in zip(
            statistics.pair_cooccurrence(candidates), exact.pair_cooccurrence(candidates)
        ):
            assert np.array_equal(ours, theirs)


def _check_insert_time_reads(session):
    """Make the session's index check every insert-time read it hands out
    (taken right after the mutation, before scoring)."""
    index = session.index
    read = index.insert_statistics

    def checked(candidates):
        statistics = read(candidates)
        _assert_insert_time_equals_exact(index, candidates, statistics)
        return statistics

    index.insert_statistics = checked


def _apply(session, step):
    if step[0] == "add":
        _, entity_id, side, tokens = step
        return session.insert(make_profile(entity_id, t=" ".join(tokens)), side=side)
    if step[0] == "bulk":
        _, batch, side = step
        return session.insert_bulk(
            [make_profile(eid, t=" ".join(tokens)) for eid, tokens in batch], side=side
        )
    if step[0] == "remove":
        return session.remove(step[1], side=step[2])
    _, entity_id, side, tokens = step
    return session.update(make_profile(entity_id, t=" ".join(tokens)), side=side)


@st.composite
def _scripts(draw, bilateral):
    """A churn script with ``compact`` and ``recover`` steps thrown in."""
    steps = list(draw(churn_scripts(bilateral)))
    for kind in draw(st.lists(st.sampled_from(("compact", "recover")), max_size=3)):
        steps.insert(draw(st.integers(0, len(steps))), (kind,))
    return steps


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), bilateral=st.booleans())
def test_insert_time_statistics_do_not_depend_on_the_mutation_path(data, bilateral):
    steps = data.draw(_scripts(bilateral))
    probe_tokens = data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))
    tmp = Path(tempfile.mkdtemp())
    session = MatchingSession(MODEL, bilateral=bilateral, wal_path=tmp / "wal0")
    generation = 0
    try:
        _check_insert_time_reads(session)
        for step in steps:
            if step[0] == "compact":
                session.compact()
            elif step[0] == "recover":
                session.checkpoint()
                generation += 1
                copy = tmp / f"wal{generation}"
                shutil.copytree(session.wal.path, copy)
                recovered = MatchingSession.recover(copy)
                # the same next insert, scored by both: the same bits
                probe = make_profile(f"probe{generation}", t=" ".join(probe_tokens))
                ours = recovered.insert(probe, side=int(bilateral))
                theirs = session.insert(probe, side=int(bilateral))
                assert ours.counterpart_ids == theirs.counterpart_ids
                assert np.array_equal(ours.probabilities, theirs.probabilities)
                session.close()
                session = recovered
                _check_insert_time_reads(session)
            else:
                _apply(session, step)
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)


def test_blocks_that_spawn_no_comparison_are_masked():
    """``solo`` holds one entity and ``left`` two of the first side: both are
    in the raw rows, neither spawns a comparison, so neither is summed."""
    index = MutableBlockIndex(bilateral=True)
    index.add_entity(make_profile("a0", t="solo left shared"), side=0)
    index.add_entity(make_profile("a1", t="left shared"), side=0)
    delta = index.add_entity(make_profile("b0", t="shared"), side=1)
    candidates = index.delta_candidate_set(delta)
    statistics = index.insert_statistics(candidates)
    a0 = index.node_of("a0")
    assert index.csr().indices[index.csr().indptr[a0] : index.csr().indptr[a0 + 1]].size == 3
    assert statistics.blocks_per_entity[a0] == 1.0
    assert statistics.entity_cardinality[a0] == 2.0
    assert statistics.entity_inv_cardinality[a0] == 0.5
    assert statistics.entity_inv_size[a0] == 1.0 / 3.0
    assert statistics.num_blocks == 1 and statistics.total_cardinality == 2.0
    _assert_insert_time_equals_exact(index, candidates, statistics)


def test_an_insert_never_reads_the_whole_collection(monkeypatch):
    """The insert path stays O(delta): ``insert``, ``update`` and
    ``insert_bulk`` succeed with the collection-wide read disabled, which an
    exact answer needs."""
    session = MatchingSession(MODEL, bilateral=True)
    session.insert_bulk([make_profile(f"a{i}", t=f"w{i % 3} common") for i in range(6)], side=0)

    def collection_wide(*args, **kwargs):
        raise AssertionError("an insert read the whole collection")

    monkeypatch.setattr(state_module, "clean_memberships", collection_wide)
    assert session.insert(make_profile("b0", t="w1 common"), side=1).num_new_pairs == 6
    assert session.update(make_profile("a2", t="w1 other"), side=0).inserted.num_new_pairs == 1
    assert session.insert_bulk(
        [make_profile(f"b{i}", t=f"w{i % 3}") for i in range(1, 4)], side=1
    ).num_new_pairs > 0
    with pytest.raises(AssertionError, match="whole collection"):
        session.retained()
