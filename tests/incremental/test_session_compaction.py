"""Session-safe compaction: remapped online state, stale-session detection.

``MutableBlockIndex.compact()`` reassigns raw node ids, and with them the
packed pair keys.  A live :class:`MatchingSession` keys per-pair state by
them (the insert-time probabilities, OnlineTopK's queue items), so
compacting the index directly would silently corrupt it — the regression
these tests pin down.  :meth:`MatchingSession.compact` remaps that state by canonical pair
key; direct ``index.compact()`` is detected via the index generation
counter and every subsequent session operation raises
:class:`StaleSessionError`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import make_profile
from repro.incremental import MatchingSession, StaleSessionError

from reference import CLEANINGS
from test_churn_property import _Shadow, _assert_converges, _operations, _replay
from test_session_property import PRUNING, _frozen_model


def _churned_session(online="topk", top_k=8):
    session = MatchingSession(_frozen_model(), online=online, top_k=top_k)
    for i in range(30):
        session.insert(
            make_profile(f"e{i}", t=f"alpha tok{i % 4} tok{i % 7} beta")
        )
    for i in range(0, 30, 3):
        session.remove(f"e{i}")
    return session


class TestSessionCompact:
    @pytest.mark.parametrize("online", ["wep", "topk"])
    def test_compact_preserves_answer_and_thresholds(self, online):
        session = _churned_session(online=online)
        expected = session.retained().retained_id_set()
        threshold = session.online.threshold
        assert session.index.num_slots > session.index.num_entities

        session.compact()

        assert session.index.num_slots == session.index.num_entities
        assert session.retained().retained_id_set() == expected
        assert session.online.threshold == pytest.approx(threshold, abs=1e-12)

    def test_compact_keeps_probabilities_aligned_with_the_pairs(self):
        session = _churned_session(online="wep")
        from repro.persistence import canonical_pair_keys

        raw, before = session.insert_time_probabilities()
        keys = canonical_pair_keys(session.index, raw)
        order = np.argsort(keys)

        session.compact()

        # raw ids are the canonical ids now: the keys carry over unchanged
        keys2, after = session.insert_time_probabilities()
        assert np.array_equal(keys[order], keys2)
        assert np.array_equal(canonical_pair_keys(session.index, keys2), keys2)
        assert np.allclose(before[order], after)

    def test_streaming_continues_after_compact(self):
        session = _churned_session(online="topk")
        session.compact()
        session.insert(make_profile("fresh", t="alpha beta tok1"))
        session.remove("fresh")
        session.update(make_profile("e1", t="alpha tok2"))
        session.compact()  # repeated compaction is fine
        assert session.index.num_slots == session.index.num_entities


class TestStaleSessionDetection:
    def test_direct_index_compact_is_detected(self):
        session = _churned_session()
        session.index.compact()  # bypasses the session — the old corruption
        with pytest.raises(StaleSessionError, match="MatchingSession.compact"):
            session.insert(make_profile("x", t="alpha"))
        with pytest.raises(StaleSessionError):
            session.remove("e1")
        with pytest.raises(StaleSessionError):
            session.retained()
        with pytest.raises(StaleSessionError):
            session.compact()

    def test_session_compact_keeps_the_session_fresh(self):
        session = _churned_session()
        session.compact()
        session.insert(make_profile("x", t="alpha"))  # no StaleSessionError


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    operations=_operations(bilateral=True),
    pruning=st.sampled_from(PRUNING),
    compact_every=st.integers(1, 5),
)
def test_churn_with_interleaved_compaction_converges_to_batch(
    cleaning, operations, pruning, compact_every
):
    """Any interleaving of mutations and session-safe compactions still
    finalises to exactly the batch answer, for every pruning algorithm and
    under both questions (raw blocks, the paper's pipeline)."""
    model = _frozen_model(cleaning)
    session = MatchingSession(model, bilateral=True, pruning=pruning)
    shadow = _Shadow()
    for start in range(0, len(operations), compact_every):
        _replay(session, shadow, operations[start : start + compact_every])
        session.compact()
        assert session.index.num_slots == session.index.num_entities
    _assert_converges(session, shadow, True, pruning, model, cleaning)
