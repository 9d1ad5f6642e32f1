"""Property test: crash recovery is exact at every possible crash point.

Hypothesis generates random churn scripts (inserts, bulk loads, removals,
in-place updates), runs them against a WAL-attached index and then simulates
a crash at **every** log record boundary and at offsets tearing a record in
half.  Recovery from each truncated copy must yield an index whose canonical view (canonical candidate pairs,
snapshot blocks, per-entity aggregates) equals a fresh index that applied
exactly the operations whose records fully survived — the
replay-to-last-complete-record guarantee, with and without a mid-sequence
snapshot.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import make_profile
from repro.incremental import MutableBlockIndex
from repro.persistence import (
    LOG_MAGIC,
    WriteAheadLog,
    apply_logged_record,
    construct_index,
    recover_index,
    write_index_snapshot,
)

WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)

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


def apply_script(index, steps, snapshot_after=None, wal=None):
    for position, step in enumerate(steps):
        if step[0] == "add":
            _, entity_id, side, tokens = step
            index.add_entity(make_profile(entity_id, t=" ".join(tokens)), side=side)
        elif step[0] == "bulk":
            _, batch, side = step
            index.add_entities_bulk(
                [make_profile(eid, t=" ".join(tokens)) for eid, tokens in batch],
                side=side,
            )
        elif step[0] == "remove":
            _, entity_id, side = step
            index.remove_entity(entity_id, side=side)
        else:
            _, entity_id, side, tokens = step
            index.update_entity(make_profile(entity_id, t=" ".join(tokens)), side=side)
        if snapshot_after is not None and position == snapshot_after:
            write_index_snapshot(index, wal)


def pairs_of(candidates):
    return set(zip(candidates.left.tolist(), candidates.right.tolist()))


def canonical_view(index):
    """Everything recovery promises to restore, in canonical coordinates."""
    pairs = pairs_of(index.candidate_set().canonical)
    blocks = {
        (b.key, tuple(b.entities_first), tuple(b.entities_second))
        for b in index.snapshot_blocks()
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


def reference_for_prefix(records):
    """A fresh index holding exactly the logged prefix — no snapshots, no
    recovery machinery, just the logical record semantics."""
    meta = records[0]
    assert meta["op"] == "meta"
    index = construct_index(meta)
    for record in records[1:]:
        apply_logged_record(index, record)
    return index


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


def run_crash_sweep(make_index, steps, snapshot_after):
    with tempfile.TemporaryDirectory() as root:
        live_dir = Path(root) / "live"
        index = make_index()
        wal = WriteAheadLog(live_dir, sync="batch")
        index.attach_wal(wal)
        apply_script(index, steps, snapshot_after=snapshot_after, wal=wal)
        wal.close()

        scan = WriteAheadLog(live_dir).scan()
        full = (live_dir / "wal.log").read_bytes()
        snapshot = WriteAheadLog(live_dir).latest_snapshot()
        snapshot_offset = None if snapshot is None else int(snapshot["log_offset"])

        for cut in crash_points(scan, len(full)):
            crash_dir = Path(root) / "crash"
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            (crash_dir / "wal.log").write_bytes(full[:cut])
            # a snapshot fsynced at offset o can only exist in a crash image
            # whose durable log already reached o (sync="always" semantics)
            if snapshot_offset is not None and snapshot_offset <= cut:
                for path in WriteAheadLog(live_dir).snapshot_paths():
                    shutil.copy(path, crash_dir / path.name)
                # what recovery reads: the tail behind the snapshot decodes to
                # exactly the whole-log scan's records from there on
                crashed = WriteAheadLog(crash_dir)
                whole, tail = crashed.scan(), crashed.scan(snapshot_offset)
                assert tail.records == [
                    entry for entry in whole.records if entry.start >= snapshot_offset
                ]
                assert tail.valid_length == whole.valid_length
                assert tail.file_length == whole.file_length

            surviving = [
                entry.record for entry in scan.records if entry.end <= cut
            ]
            if not surviving and (snapshot_offset is None or snapshot_offset > cut):
                # the crash predates even the meta record: the log is torn
                # down to nothing recoverable, and recovery must say so
                # rather than hand back a guessed-topology index
                with pytest.raises(ValueError):
                    recover_index(crash_dir)
                continue
            recovered = recover_index(crash_dir)
            assert_same_view(recovered, reference_for_prefix(surviving))

        # the complete log recovers the full run
        assert_same_view(recover_index(live_dir), index)


@SLOW_SETTINGS
@given(data=st.data(), bilateral=st.booleans(), with_snapshot=st.booleans())
def test_plain_index_recovers_at_every_crash_point(data, bilateral, with_snapshot):
    steps = data.draw(churn_scripts(bilateral))
    snapshot_after = (
        data.draw(st.integers(0, len(steps) - 1)) if with_snapshot else None
    )
    run_crash_sweep(
        lambda: MutableBlockIndex(bilateral=bilateral), steps, snapshot_after
    )


def test_resume_appends_behind_a_torn_tail(tmp_path):
    """recover(resume=True) truncates the tear and keeps journaling."""
    live_dir = tmp_path / "w"
    index = MutableBlockIndex()
    wal = WriteAheadLog(live_dir)
    index.attach_wal(wal)
    for i in range(6):
        index.add_entity(make_profile(f"e{i}", t=f"apple phone tok{i % 2}"))
    index.remove_entity("e1")
    wal.close()

    log = live_dir / "wal.log"
    log.write_bytes(log.read_bytes()[:-7])  # tear the final record

    recovered = recover_index(live_dir, resume=True)
    assert recovered.has_entity("e1")  # the torn removal never happened
    recovered.add_entity(make_profile("late", t="apple mini"))
    recovered._wal.close()

    again = recover_index(live_dir)
    assert again.has_entity("late")
    assert_same_view(again, recovered)


def test_recovery_without_meta_or_snapshot_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "w")
    with wal:
        wal.append_record({"op": "add", "id": "e0", "side": 0, "sig": ["a"]})
    with pytest.raises(ValueError, match="neither a snapshot nor a meta record"):
        recover_index(tmp_path / "w")
