"""Property test: streaming inserts reproduce the batch retained set.

Hypothesis generates small random entity collections (including empty
profiles, singleton tokens and tokens present on only one side, i.e. blocks
that spawn no comparison).  Every collection is processed twice:

* *batch* — token blocking, then Block Purging and Block Filtering as the
  model's cleaning says: the paper's pipeline (``prepare_blocks``' defaults)
  or raw blocks (both off) — sparse feature generation, scoring, pruning;
* *streaming* — a :class:`MatchingSession` fed the same entities one at a
  time, finalised with :meth:`MatchingSession.retained`, which cleans the
  live blocks the same way.

Both sides share a deterministic frozen classifier (no training — the
property is about statistics/scoring/pruning equivalence, not about the
learner), and must retain exactly the same entity-id pairs, under both
questions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import CLEANINGS, batch_retained_ids, make_frozen_model
from repro.blocking import prepare_blocks
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import FrozenModel, MatchingSession, interleave_profiles
from repro.weights import RCNP_FEATURE_SET

#: RCNP's Formula 2 set covers every aggregate kind, including the per-side
#: LCP columns whose orientation the streaming generator must preserve.
FEATURE_SET = RCNP_FEATURE_SET

#: Every pruning algorithm is exactly batch-equivalent: the weight-based
#: ones are order-invariant by construction, and the cardinality-based ones
#: (CEP/CNP/RCNP) break probability ties deterministically by packed
#: candidate key, so arrival-ordered and canonical pair storage retain the
#: same set.
PRUNING = ("BCl", "BLAST", "WEP", "WNP", "RWNP", "CEP", "CNP", "RCNP")


def _frozen_model(cleaning: str = "raw") -> FrozenModel:
    return make_frozen_model(FEATURE_SET, CLEANINGS[cleaning])


def _oracle(cleaning: str) -> dict:
    """The ``prepare_blocks`` arguments of the batch side of ``cleaning``."""
    return CLEANINGS[cleaning].prepare_arguments()


_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")


def _profile_strategy():
    return st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join)


def _collection(prefix, texts, is_clean=True):
    return EntityCollection(
        [
            make_profile(f"{prefix}{position}", text=text)
            for position, text in enumerate(texts)
        ],
        name=prefix,
        is_clean=is_clean,
    )


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(max_examples=60, deadline=None)
@given(
    first_texts=st.lists(_profile_strategy(), min_size=1, max_size=7),
    second_texts=st.lists(_profile_strategy(), min_size=1, max_size=7),
    pruning=st.sampled_from(PRUNING),
)
def test_bilateral_stream_matches_batch(cleaning, first_texts, second_texts, pruning):
    first = _collection("a", first_texts)
    second = _collection("b", second_texts)
    model = _frozen_model(cleaning)

    session = MatchingSession(model, bilateral=True, pruning=pruning)
    for profile, side in interleave_profiles(first, second):
        session.insert(profile, side=side)
    streamed = {frozenset(pair) for pair in session.retained().retained_ids}

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
@given(
    texts=st.lists(_profile_strategy(), min_size=1, max_size=10),
    pruning=st.sampled_from(PRUNING),
)
def test_unilateral_stream_matches_batch(cleaning, texts, pruning):
    collection = _collection("d", texts, is_clean=False)
    model = _frozen_model(cleaning)

    session = MatchingSession(model, bilateral=False, pruning=pruning)
    session.insert_many(collection)
    streamed = {frozenset(pair) for pair in session.retained().retained_ids}

    prepared = prepare_blocks(collection, None, **_oracle(cleaning))
    batch = batch_retained_ids(
        prepared.blocks,
        prepared.candidates,
        model,
        pruning,
        lambda node: collection[node].entity_id,
    )
    assert streamed == batch


def test_singleton_and_empty_edge_cases_explicitly():
    """The edge cases the strategies may or may not hit, pinned down."""
    model = _frozen_model()
    first = _collection("a", ["alpha", "", "zeta"])  # singleton token + empty
    second = _collection("b", ["", "beta"])  # no shared token at all
    session = MatchingSession(model, bilateral=True, pruning="BLAST")
    for profile, side in interleave_profiles(first, second):
        session.insert(profile, side=side)
    final = session.retained()
    assert final.retained_count == 0
    assert len(final.candidates) == 0
    assert final.retained_ids == ()
