"""Property test: session crash recovery is exact at every possible crash point.

Hypothesis generates random churn scripts (inserts, bulk loads, removals,
in-place updates), runs them through a WAL-backed :class:`MatchingSession` and
then simulates a crash at **every** log record boundary and at offsets tearing
a record in half.  Recovery from each truncated copy must yield a session
whose index's canonical view (canonical candidate pairs, snapshot blocks,
per-entity aggregates) equals a fresh index that applied exactly the records
that fully survived (:func:`reference.reference_replay`), and whose exact
answer retains that index's pairs — the replay-to-last-complete-record
guarantee, with and without a mid-sequence checkpoint.  A crash that falls
before the session's first snapshot leaves no frozen model to restore, and
recovery must say so.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import make_frozen_model, reference_blocks, reference_replay
from repro.core.pruning import get_pruning_algorithm
from repro.datamodel import make_profile
from repro.incremental import DeltaFeatureGenerator, MatchingSession
from repro.incremental.session import exact_answer
from repro.persistence import LOG_MAGIC, WriteAheadLog, canonical_pair_keys, recover_session

WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)

MODEL = make_frozen_model()

SLOW_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def churn_scripts(draw, bilateral):
    """A random interleaving of inserts, bulk loads, removals and updates."""
    steps = []
    live = []
    counter = 0
    for _ in range(draw(st.integers(3, 10))):
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


def apply_script(session, steps, checkpoint_after=None):
    for position, step in enumerate(steps):
        if step[0] == "add":
            _, entity_id, side, tokens = step
            session.insert(make_profile(entity_id, t=" ".join(tokens)), side=side)
        elif step[0] == "bulk":
            _, batch, side = step
            session.insert_bulk(
                [make_profile(eid, t=" ".join(tokens)) for eid, tokens in batch],
                side=side,
            )
        elif step[0] == "remove":
            _, entity_id, side = step
            session.remove(entity_id, side=side)
        else:
            _, entity_id, side, tokens = step
            session.update(make_profile(entity_id, t=" ".join(tokens)), side=side)
        if position == checkpoint_after:
            session.checkpoint()


def pairs_of(candidates):
    return set(zip(candidates.left.tolist(), candidates.right.tolist()))


def canonical_view(index):
    """Everything recovery promises to restore, in canonical coordinates."""
    pairs = pairs_of(index.candidate_set().canonical)
    blocks = {
        (b.key, tuple(b.entities_first), tuple(b.entities_second))
        for b in reference_blocks(index)
    }
    canonical = index.canonical_node_ids()
    live = canonical >= 0
    order = np.argsort(canonical[live])
    stats = index.statistics()
    aggregates = np.stack(
        [
            stats.blocks_per_entity[live][order],
            stats.entity_cardinality[live][order],
            stats.entity_inv_cardinality[live][order],
            stats.entity_inv_size[live][order],
        ]
    )
    return index.num_entities, pairs, blocks, aggregates


def assert_same_view(recovered, reference):
    n1, pairs1, blocks1, agg1 = canonical_view(recovered)
    n2, pairs2, blocks2, agg2 = canonical_view(reference)
    assert n1 == n2
    assert pairs1 == pairs2
    assert blocks1 == blocks2
    # derived from the same rows: the counts exactly; the reciprocal sums up to
    # the order a recovered index (blocks renumbered by compaction) adds them in
    assert np.array_equal(agg1[:2], agg2[:2])
    assert np.allclose(agg1[2:], agg2[2:])


def retained_ids(index, pruning):
    """The exact answer over ``index``: the pairs ``MODEL`` and ``pruning``
    retain, as entity-id tuples."""
    features = DeltaFeatureGenerator(index, MODEL.feature_set)
    candidates, _, mask = exact_answer(features, MODEL, get_pruning_algorithm(pruning))
    return set(candidates.id_pairs(mask, index.entity_id))


def assert_recovers_the_oracle(recovered, records, pruning):
    oracle = reference_replay(records)
    assert_same_view(recovered.index, oracle)
    assert recovered.retained().retained_id_set() == retained_ids(oracle, pruning)


def canonical_probabilities(session):
    """The insert-time score of every live pair, by ascending canonical key
    (a recovered index renumbers the nodes the snapshot holds)."""
    raw, probabilities = session.insert_time_probabilities()
    keys = canonical_pair_keys(session.index, raw)
    order = np.argsort(keys)
    return keys[order], probabilities[order]


def crash_points(scan, tail_bytes):
    """Every record boundary plus offsets tearing the next record."""
    points = set()
    for entry in scan.records:
        points.add(entry.end)
        # mid-header and mid-payload tears of this record
        points.add(entry.start + 3)
        points.add(min(entry.end - 1, entry.start + 12))
    points.add(len(LOG_MAGIC))
    points.add(tail_bytes)
    return sorted(point for point in points if len(LOG_MAGIC) <= point <= tail_bytes)


def run_crash_sweep(bilateral, pruning, steps, checkpoint_after):
    with tempfile.TemporaryDirectory() as root:
        live_dir = Path(root) / "live"
        session = MatchingSession(
            MODEL, bilateral=bilateral, pruning=pruning, wal_path=live_dir, wal_sync="batch"
        )
        apply_script(session, steps, checkpoint_after)
        session.close()

        wal = WriteAheadLog(live_dir)
        scan = wal.scan()
        full = wal.log_path.read_bytes()
        snapshots = [
            (int(wal.load_snapshot(path)["log_offset"]), path) for path in wal.snapshot_paths()
        ]
        assert len(snapshots) == 1 + (checkpoint_after is not None)

        for cut in crash_points(scan, len(full)):
            crash_dir = Path(root) / "crash"
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            (crash_dir / "wal.log").write_bytes(full[:cut])
            # a snapshot fsynced at offset o can only exist in a crash image
            # whose durable log already reached o (sync="always" semantics)
            durable = [(offset, path) for offset, path in snapshots if offset <= cut]
            if not durable:
                # the crash predates the session's first snapshot (the meta
                # record at most survived): no frozen model to restore, and
                # recovery must say so rather than hand back a model-less index
                with pytest.raises(ValueError, match="no session snapshot"):
                    recover_session(crash_dir)
                continue
            for _, path in durable:
                shutil.copy(path, crash_dir / path.name)
            # what recovery reads: the tail behind the newest snapshot decodes
            # to exactly the whole-log scan's records from there on
            newest = max(offset for offset, _ in durable)
            crashed = WriteAheadLog(crash_dir)
            whole, tail = crashed.scan(), crashed.scan(newest)
            assert tail.records == [entry for entry in whole.records if entry.start >= newest]
            assert tail.valid_length == whole.valid_length
            assert tail.file_length == whole.file_length

            surviving = [entry.record for entry in scan.records if entry.end <= cut]
            recovered = recover_session(crash_dir)
            try:
                assert_recovers_the_oracle(recovered, surviving, pruning)
            finally:
                recovered.close()

        # the complete log recovers the full run: its answer, its online
        # threshold and every live pair's insert-time score
        recovered = recover_session(live_dir)
        try:
            assert_recovers_the_oracle(recovered, [entry.record for entry in scan.records], pruning)
            assert recovered.retained().retained_id_set() == session.retained().retained_id_set()
            assert recovered.online.threshold == pytest.approx(session.online.threshold, abs=1e-12)
            keys, probabilities = canonical_probabilities(session)
            recovered_keys, recovered_probabilities = canonical_probabilities(recovered)
            assert np.array_equal(recovered_keys, keys)
            assert np.allclose(recovered_probabilities, probabilities)
        finally:
            recovered.close()


@SLOW_SETTINGS
@given(
    data=st.data(),
    bilateral=st.booleans(),
    with_checkpoint=st.booleans(),
    pruning=st.sampled_from(("BLAST", "CNP", "WEP")),
)
def test_a_session_recovers_at_every_crash_point(data, bilateral, with_checkpoint, pruning):
    steps = data.draw(churn_scripts(bilateral))
    checkpoint_after = (
        data.draw(st.integers(0, len(steps) - 1)) if with_checkpoint else None
    )
    run_crash_sweep(bilateral, pruning, steps, checkpoint_after)


def test_recovery_resumes_behind_a_torn_tail(tmp_path):
    """Recovery truncates the tear and keeps journaling behind it."""
    live_dir = tmp_path / "w"
    session = MatchingSession(MODEL, wal_path=live_dir)
    for i in range(6):
        session.insert(make_profile(f"e{i}", t=f"apple phone tok{i % 2}"))
    session.remove("e1")
    session.close()

    log = live_dir / "wal.log"
    log.write_bytes(log.read_bytes()[:-7])  # tear the final record

    recovered = MatchingSession.recover(live_dir)
    assert recovered.index.has_entity("e1")  # the torn removal never happened
    recovered.insert(make_profile("late", t="apple mini"))
    recovered.close()

    again = MatchingSession.recover(live_dir)
    try:
        assert again.index.has_entity("late")
        assert_same_view(again.index, recovered.index)
        assert again.retained().retained_id_set() == recovered.retained().retained_id_set()
    finally:
        again.close()
