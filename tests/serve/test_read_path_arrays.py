"""The exact read path is array-only and its derived pair set is exact.

* No exact answer — ``MatchingSession.retained()``, the serving ``match``
  and ``top_k`` — constructs a :class:`repro.datamodel.Block`, for any
  pruning algorithm: the budgets of the cardinality-based ones come from the
  maintained block totals, not from a materialised collection.
* The candidate set the merged shard replicas of an index's log derive from
  their merged CSR is exactly the sorted plain-Python set union of the pairs
  the replicas' block member lists spawn, including a pair alive in two shards at once and a shard
  with no live pair at all (the Hypothesis form, after every prefix of a churn
  script, is ``tests/incremental/test_derived_candidates.py``).
* ``top_k`` scores a node's handful of pairs, ``match`` every live pair: with
  a *trained* logistic regression behind its scaler (not the rounding
  stand-in of ``conftest``) both report the same probability for the same
  pair at the same offset, bit for bit.
"""

import numpy as np
import pytest

from reference import make_frozen_model, member_pairs, merged_replicas
from repro.core.pruning import PRUNING_ALGORITHMS, get_pruning_algorithm
from repro.datamodel import Block, make_profile
from repro.datasets import load_benchmark
from repro.incremental import (
    DeltaFeatureGenerator,
    MatchingSession,
    MutableBlockIndex,
    interleave_profiles,
    train_frozen_model,
)
from repro.incremental.session import exact_answer
from repro.incremental.sharded import shard_of_signature
from repro.persistence import WriteAheadLog
from repro.serve.router import build_pinned_view, match_answer, top_k_answer
from repro.serve.workers import ShardReplica

pytestmark = pytest.mark.equivalence

MODEL = make_frozen_model()

_TEXTS = ("alpha beta", "beta gamma", "alpha gamma delta", "gamma delta", "alpha eps")


def _forbid_blocks(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Block was constructed on the exact read path")

    monkeypatch.setattr(Block, "__init__", refuse)


@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_no_exact_answer_constructs_a_block(tmp_path, monkeypatch, pruning):
    session = MatchingSession(MODEL, bilateral=True, pruning=pruning, wal_path=tmp_path)
    replicas = [ShardReplica(tmp_path, shard, 2) for shard in range(2)]
    try:
        for i, text in enumerate(_TEXTS):
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        session.remove("a1", side=0)
        for replica in replicas:
            replica.catch_up(session.wal.log_offset)
        view = build_pinned_view(
            [replica.read_state() for replica in replicas], session.index.entity_id
        )

        _forbid_blocks(monkeypatch)
        result = session.retained()
        answer = match_answer(view, MODEL, session.pruning)
        matches = top_k_answer(view, MODEL, session.index.node_of("a0", side=0), 3)
    finally:
        for replica in replicas:
            replica.close()
        session.close()
    assert result.retained_count > 0
    assert [pair[:2] for pair in answer["retained"]] == sorted(
        list(pair) for pair in result.retained_ids
    )
    assert matches and all(match["side"] == 1 for match in matches)


def test_top_k_probabilities_equal_the_exact_answers_bit_for_bit(tmp_path):
    dataset = load_benchmark("DblpAcm", seed=2, scale=0.05)
    model = train_frozen_model(dataset, seed=1)
    assert model.scaler is not None and type(model.classifier).__name__ == "LogisticRegression"
    session = MatchingSession(model, bilateral=True, wal_path=tmp_path)
    replicas = [ShardReplica(tmp_path, shard, 2) for shard in range(2)]
    try:
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        # the generated collections are dense (every degree >= 25); a BLAS
        # score differed where a node has *one* pair, so add some that do:
        # a private token shared with a copy of a dense record
        for serial, dense in enumerate(list(dataset.second)[:24]):
            session.insert(make_profile(f"lone{serial}", text=f"zq{serial}"), side=0)
            session.insert(
                make_profile(f"copy{serial}", text=f"{dense.text()} zq{serial}"), side=1
            )
        for replica in replicas:
            replica.catch_up(session.wal.log_offset)
        view = build_pinned_view(
            [replica.read_state() for replica in replicas], session.index.entity_id
        )
        candidates, probabilities, _ = exact_answer(
            DeltaFeatureGenerator(view, model.feature_set), model, session.pruning
        )
        exact = {
            frozenset((view.entity_id(int(i)), view.entity_id(int(j)))): probability
            for i, j, probability in zip(candidates.left, candidates.right, probabilities)
        }
        degrees = np.bincount(candidates.left, minlength=view.num_slots)
        degrees += np.bincount(candidates.right, minlength=view.num_slots)
        checked = 0
        lone = np.flatnonzero(degrees == 1)
        assert lone.size == 24
        for node in [*lone.tolist(), *np.flatnonzero(degrees > 1)[::3].tolist()]:
            matches = top_k_answer(view, model, node, k=int(degrees[node]))
            assert len(matches) == degrees[node]
            for match in matches:
                pair = frozenset((view.entity_id(node), match["entity_id"]))
                assert match["probability"] == exact[pair], (node, match)
            checked += len(matches)
        assert checked > 500 and 0.0 < min(exact.values()) < max(exact.values()) < 1.0
    finally:
        for replica in replicas:
            replica.close()
        session.close()


def _tokens_per_shard(num_shards, per_shard=2):
    """``per_shard`` distinct tokens hashing to each shard."""
    found = [[] for _ in range(num_shards)]
    serial = 0
    while any(len(tokens) < per_shard for tokens in found):
        token = f"tok{serial}"
        serial += 1
        shard = shard_of_signature(token, num_shards)
        if len(found[shard]) < per_shard:
            found[shard].append(token)
    return found


def test_derived_pairs_equal_the_python_set_union_of_the_member_pairs(tmp_path):
    tokens = _tokens_per_shard(3)
    writer = MutableBlockIndex()
    wal = WriteAheadLog(tmp_path)
    writer.attach_wal(wal)
    # e0/e1 co-occur under a shard-0 token *and* a shard-1 token; e2 joins
    # them through shard 0 only; e3/e4 pair up in shard 1 and e4 then leaves
    # (a tombstoned registry position, a stale CSR row); shard 2 never spawns
    # a pair
    writer.add_entity(make_profile("e0", text=f"{tokens[0][0]} {tokens[1][0]}"))
    writer.add_entity(make_profile("e1", text=f"{tokens[0][0]} {tokens[1][0]}"))
    writer.add_entity(make_profile("e2", text=f"{tokens[0][0]} {tokens[2][0]}"))
    writer.add_entity(make_profile("e3", text=tokens[1][1]))
    writer.add_entity(make_profile("e4", text=f"{tokens[1][1]} {tokens[2][1]}"))
    writer.remove_entity("e4")
    index, replicas = merged_replicas(wal, writer, 3)
    for replica in replicas:
        replica.close()
    wal.close()

    per_shard = [member_pairs([shard]) for shard in index.shards]
    assert per_shard[0] & per_shard[1], "no pair is alive in two shards"
    assert not per_shard[2], "every shard holds a live pair"
    assert index.num_slots > index.num_entities, "no tombstoned node"

    derived = index.candidate_set()
    assert list(zip(derived.left.tolist(), derived.right.tolist())) == sorted(
        set().union(*per_shard)
    )
    # a pair under two shards' tokens is one pair with a term from each
    shared = derived.position_index()[(0, 1)]
    assert index.statistics().pair_cooccurrence(derived).common[shared] == 2.0
