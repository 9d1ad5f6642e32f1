"""The hazards of reading the live collection under the paper's block cleaning.

A model trained on ``prepare_blocks``' defaults answers on purged and
filtered live blocks (:attr:`FrozenModel.cleaning`); the insert path keeps
scoring raw deltas.  Each hazard the cleaned read has to settle, pinned on a
collection built to hit it, against the batch pipeline on the same live
entities:

* only the blocks batch assembles count — a one-sided block of a two-source
  index must not inflate Block Filtering's ``k``;
* Block Purging's limit is a fraction of the *live* entities, not of the slots;
* a block filtering strands with first-side members only is a candidate
  source, as it is in batch — and ``top_k`` reports its same-side pairs with
  the very probability ``match`` gives them;
* a pair filtering drops and a later mutation re-admits keeps its raw
  insert-time score throughout, which the exact answer never reads;
* a snapshot's model state without a cleaning field (written before models
  recorded one) restores the raw question and its answer, and a session
  recovered at every record boundary answers what the writing session
  answered there, under both questions; a malformed cleaning field is
  refused at recovery.
"""

import shutil

import numpy as np
import pytest

from reference import CLEANINGS, batch_retained_ids, make_frozen_model, reference_retained
from repro.blocking import prepare_blocks
from repro.blocking.cleaning import NO_CLEANING, PAPER_CLEANING
from repro.core.features import FeatureVectorGenerator
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import MatchingSession
from repro.pairs import pack_pair_keys
from repro.persistence import WriteAheadLog
from repro.serve.router import build_pinned_view, match_answer, top_k_answer
from repro.serve.workers import ShardReplica

PAPER = make_frozen_model(cleaning=PAPER_CLEANING)


def _session(texts, bilateral=True, model=PAPER, **kwargs):
    """A session fed ``texts`` (``(entity_id, side, text)``) in order."""
    session = MatchingSession(model, bilateral=bilateral, pruning="BCl", **kwargs)
    for entity_id, side, text in texts:
        session.insert(make_profile(entity_id, text=text), side=side)
    return session


def _candidate_ids(session):
    candidates = session.retained().candidates
    return {
        frozenset(pair)
        for pair in candidates.id_pairs(np.ones(len(candidates), dtype=bool), session.index.entity_id)
    }


def _batch_candidate_ids(texts, bilateral=True):
    sides = (0, 1) if bilateral else (0,)
    collections = [
        EntityCollection(
            [make_profile(entity_id, text=text) for entity_id, of, text in texts if of == side],
            name=f"side{side}",
            is_clean=bilateral,
        )
        for side in sides
    ]
    prepared = prepare_blocks(*collections)
    ids = [profile.entity_id for collection in collections for profile in collection]
    pairs = {
        frozenset((ids[i], ids[j]))
        for i, j in zip(prepared.candidates.left.tolist(), prepared.candidates.right.tolist())
    }
    return pairs, prepared, ids


def test_a_one_sided_block_does_not_count_towards_filtering():
    """a0's valid blocks are t1 and t2 (k = 2, both kept); three blocks it
    shares with a1 alone never spawn a comparison in a two-source index, and
    counted they would make k = 5 and cut t2 — and the pair (a0, b1).  (Four
    entities without tokens keep t2 under the purging limit.)"""
    texts = [
        ("a0", 0, "t1 t2 u1 u2 u3"),
        ("a1", 0, "u1 u2 u3"),
        ("b0", 1, "t1 t2"),
        ("b1", 1, "t2"),
        *((f"z{i}", 1, "") for i in range(4)),
    ]
    session = _session(texts)
    expected, _, _ = _batch_candidate_ids(texts)
    assert frozenset(("a0", "b1")) in expected
    assert _candidate_ids(session) == expected


def test_purging_limits_blocks_by_the_live_entities():
    """Six entities share 'common'; with three removed, the block's three live
    members exceed half of the three live entities (but not of six slots)."""
    texts = [(f"e{i}", 0, f"common own{i // 2}") for i in range(6)]
    session = _session(texts, bilateral=False)
    for i in (1, 3, 5):
        session.remove(f"e{i}")
    live = [entry for entry in texts if entry[0] not in ("e1", "e3", "e5")]
    expected, prepared, _ = _batch_candidate_ids(live, bilateral=False)
    assert len(prepared.blocks) == 0 and expected == set()
    assert _candidate_ids(session) == expected
    assert session.num_pairs == 3  # the raw delta path still pairs them


def _stranding_texts():
    """b0's largest block t is cut by filtering (k = 5, its blocks m1..m4 have
    one comparison each), leaving t with a0 and a1: a stranded block.  a0 and
    a1 also share w with b1, a cross block the intra expansion of t never
    lists for the pair (a0, a1)."""
    return [
        ("a0", 0, "t w"),
        ("a1", 0, "t w"),
        ("b0", 1, "t m1 m2 m3 m4"),
        ("b1", 1, "w"),
        *((f"c{i}", 0, f"m{i}") for i in range(1, 5)),
    ]


def _probabilities(ids, left, right, probabilities):
    return {
        frozenset((ids(i), ids(j))): value
        for i, j, value in zip(left.tolist(), right.tolist(), probabilities.tolist())
    }


def test_a_stranded_block_pairs_its_first_side_as_batch_does(tmp_path):
    texts = _stranding_texts()
    expected, prepared, ids = _batch_candidate_ids(texts)
    assert frozenset(("a0", "a1")) in expected
    session = _session(texts, wal_path=tmp_path)
    replicas = [ShardReplica(tmp_path, shard, 2) for shard in range(2)]
    try:
        assert _candidate_ids(session) == expected
        # every pair scored as batch scores it: (a0, a1) counts both blocks
        batch = prepared.candidates
        matrix = FeatureVectorGenerator(PAPER.feature_set).generate(batch, prepared.statistics())
        streamed = session.retained()
        assert _probabilities(
            session.index.entity_id, streamed.candidates.left, streamed.candidates.right,
            streamed.probabilities,
        ) == _probabilities(ids.__getitem__, batch.left, batch.right, PAPER.score(matrix.values))
        # the scores: the batch pipeline's, BCl keeping every valid pair
        reference = reference_retained(session)
        assert {frozenset(row[:2]) for row in reference} == batch_retained_ids(
            prepared.blocks, prepared.candidates, PAPER, "BCl", ids.__getitem__
        )
        for replica in replicas:
            replica.catch_up(session.wal.log_offset)
        view = build_pinned_view(
            [replica.read_state() for replica in replicas], session.index.entity_id
        )
        assert match_answer(view, PAPER, session.pruning)["retained"] == reference
        # top_k's same-side counterpart, with match's probability
        probability = _probabilities(
            view.entity_id, streamed.candidates.left, streamed.candidates.right,
            streamed.probabilities,
        )
        matches = top_k_answer(view, PAPER, session.index.node_of("a0", side=0), k=5)
        assert {(match["entity_id"], match["side"]) for match in matches} == {("a1", 0), ("b1", 1)}
        for match in matches:
            assert match["probability"] == probability[frozenset(("a0", match["entity_id"]))]
    finally:
        for replica in replicas:
            replica.close()
        session.close()


def test_a_readmitted_pair_keeps_its_insert_time_score():
    """(a, b) share x, a's smallest block; d and e joining x make it a's
    largest of five, so filtering cuts a from x; removing them re-admits the
    pair.  The session's per-pair store holds the raw insert-time score all
    along, and the exact answer follows the batch pipeline, not that store."""
    partners = [(f"{token}{i}", 0, token) for token in "pqrs" for i in range(2)]
    texts = [("a", 0, "x p q r s"), ("b", 0, "x"), *partners]
    session = _session(texts, bilateral=False)
    node_a, node_b = session.index.node_of("a"), session.index.node_of("b")
    key = int(pack_pair_keys(np.array([min(node_a, node_b)]), np.array([max(node_a, node_b)]))[0])

    def stored():
        keys, probabilities = session.insert_time_probabilities()
        return float(probabilities[np.searchsorted(keys, key)])

    pair = frozenset(("a", "b"))
    score = stored()
    assert pair in _candidate_ids(session)
    for entity_id in ("d", "e"):
        session.insert(make_profile(entity_id, text="x"))
    assert pair not in _candidate_ids(session)
    assert stored() == score
    live = texts + [("d", 0, "x"), ("e", 0, "x")]
    assert _candidate_ids(session) == _batch_candidate_ids(live, bilateral=False)[0]
    for entity_id in ("d", "e"):
        session.remove(entity_id)
    assert pair in _candidate_ids(session)
    assert stored() == score
    assert _candidate_ids(session) == _batch_candidate_ids(texts, bilateral=False)[0]


def test_a_model_state_without_a_cleaning_restores_the_raw_question(tmp_path):
    """Snapshots written before models recorded their cleaning carry no
    field: they restore with none, and the recovered answer is the one the
    writing session gave (which the paper's pipeline would not give here)."""
    directory = tmp_path / "wal"
    session = _session(_stranding_texts(), model=make_frozen_model(), wal_path=directory)
    newest = session.checkpoint()
    written = reference_retained(session)
    session.close()
    wal = WriteAheadLog(directory)
    state = wal.load_snapshot(newest)
    model_state = dict(state["session"]["model"])
    assert model_state.pop("cleaning") == NO_CLEANING._asdict()
    wal.write_snapshot(dict(state, session=dict(state["session"], model=model_state)))

    recovered = MatchingSession.recover(directory)
    try:
        assert recovered.model.cleaning == NO_CLEANING
        assert reference_retained(recovered) == written
        assert written != reference_retained(_session(_stranding_texts()))
    finally:
        recovered.close()


@pytest.mark.parametrize(
    "cleaning, refusal",
    [
        ({"purging_fraction": 0.5}, "expected the fields"),
        ({"purging_fraction": 0.5, "filtering_ratio": 0.8, "extra": None}, "expected the fields"),
        ({"purging_fraction": 0.0, "filtering_ratio": 0.8}, "purging_fraction is 0.0, outside"),
        ({"purging_fraction": None, "filtering_ratio": 1.5}, "filtering_ratio is 1.5, outside"),
        ({"purging_fraction": -0.5, "filtering_ratio": None}, "purging_fraction is -0.5, outside"),
        ({"purging_fraction": "0.5", "filtering_ratio": None}, "purging_fraction is '0.5'"),
        ({"purging_fraction": None, "filtering_ratio": True}, "filtering_ratio is True"),
        ([0.5, 0.8], "expected the fields"),
    ],
)
def test_a_snapshot_with_an_invalid_cleaning_is_refused_at_recovery(tmp_path, cleaning, refusal):
    """The model state's cleaning is input from outside the program: a
    malformed one is refused by name when the session recovers, not by the
    first answer that reads the collection under it."""
    directory = tmp_path / "wal"
    session = _session(_stranding_texts(), wal_path=directory)
    newest = session.checkpoint()
    session.close()
    wal = WriteAheadLog(directory)
    state = wal.load_snapshot(newest)
    model_state = dict(state["session"]["model"], cleaning=cleaning)
    wal.write_snapshot(dict(state, session=dict(state["session"], model=model_state)))

    with pytest.raises(ValueError, match=refusal):
        MatchingSession.recover(directory)


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
def test_recovery_at_every_record_boundary_answers_as_the_writer_did(tmp_path, cleaning):
    """A crash after any record: the recovered session's exact answer (and
    its model's cleaning) is the writing session's at that record."""
    model = make_frozen_model(cleaning=CLEANINGS[cleaning])
    directory = tmp_path / "wal"
    session = MatchingSession(model, bilateral=True, wal_path=directory, snapshot_every=3)
    answers = {session.wal.log_offset: reference_retained(session)}
    for entity_id, side, text in _stranding_texts():
        session.insert(make_profile(entity_id, text=text), side=side)
        answers[session.wal.log_offset] = reference_retained(session)
    session.update(make_profile("b0", text="t m1 m2"), side=1)
    answers[session.wal.log_offset] = reference_retained(session)
    session.remove("c1", side=0)
    answers[session.wal.log_offset] = reference_retained(session)
    session.close()
    assert len({str(answer) for answer in answers.values()}) > 3

    log = (directory / "wal.log").read_bytes()
    for offset, answer in answers.items():
        copy = tmp_path / f"crash-{offset}"
        shutil.copytree(directory, copy)
        (copy / "wal.log").write_bytes(log[:offset])
        # snapshots taken past the crash point cannot have been written yet
        for path in WriteAheadLog(copy).snapshot_paths():
            if WriteAheadLog(copy).load_snapshot(path)["log_offset"] > offset:
                path.unlink()
        recovered = MatchingSession.recover(copy)
        try:
            assert recovered.model.cleaning == model.cleaning
            assert reference_retained(recovered) == answer, offset
        finally:
            recovered.close()
