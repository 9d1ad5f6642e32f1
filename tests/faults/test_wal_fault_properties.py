"""WAL fault semantics + the acked-write-survival properties.

The write-ahead log's contract under injected failures:

* a failed **fsync** undoes the partial append (append-or-nothing) and the
  writer keeps working — the log is *not* broken; only when the undo fails
  too is the writer broken and the append's fate unknown
  (:class:`WalIndeterminateError`): a daemon answers it ``indeterminate``,
  answers nothing after it and stops, and recovery replays the record
  exactly when the scan returns it;
* a **torn** or **corrupt** tail cannot be undone blindly, so the writer
  marks itself broken and refuses further appends (:class:`WalBrokenError`)
  while the log stays readable — ``scan()`` drops the damaged tail;
* across any schedule of injected faults, recovery sees **exactly** the
  acked (non-raising) appends, in order — nothing acked is lost, nothing
  unacked is resurrected.

The Hypothesis properties drive both the raw log and a full
:class:`MatchingSession` (journal + apply + recover) through random
operation sequences under random fault schedules.
"""

import errno
import shutil
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import make_frozen_model, reference_replay, reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FaultPlan, InjectedFaultError
from repro.incremental import DeltaFeatureGenerator, MatchingSession
from repro.incremental.session import exact_answer
from repro.persistence.log import WalBrokenError, WalIndeterminateError, WriteAheadLog
from repro.persistence.recovery import recover_session
from repro.serve import (
    ERROR_INDETERMINATE,
    ERROR_WAL,
    MatchingDaemon,
    ProtocolError,
    ServeClient,
    ServeError,
)

MODEL = make_frozen_model()

_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
_text = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map(" ".join)


def _record(n):
    """A record the log's table accepts (the log refuses any other)."""
    return {"op": "remove", "id": f"e{n}", "side": 0}


class _TruncateFails:
    """A writer's log file whose truncate fails; everything else passes
    through to the real file."""

    def __init__(self, file):
        self._file = file

    def truncate(self, *size):
        raise OSError(errno.EIO, "injected truncate failure")

    def __getattr__(self, name):
        return getattr(self._file, name)


class _WriteTornAndTruncateFails(_TruncateFails):
    """Also: a write gets half its bytes onto the disk, then the disk is
    full."""

    def write(self, blob):
        self._file.write(blob[: len(blob) // 2])
        self._file.flush()
        raise OSError(errno.ENOSPC, "injected short write")


class TestFsyncFaults:
    def test_failed_fsync_undoes_the_append_and_writer_survives(self, tmp_path):
        faults.install(FaultPlan(fsync_error=(1,)))
        wal = WriteAheadLog(tmp_path).open()
        with pytest.raises(OSError):
            wal.append_record(_record(0))
        assert not wal.broken
        # append-or-nothing: the failed record left no bytes behind
        offset_after_failure = wal.log_offset
        wal.append_record(_record(1))
        assert wal.log_offset > offset_after_failure
        faults.clear()
        scan = wal.scan()
        assert [entry.record for entry in scan.records] == [_record(1)]
        assert not scan.truncated
        wal.close()

    def test_a_failed_undo_breaks_the_writer_and_the_committed_prefix_reopens(
        self, tmp_path
    ):
        """The fsync fails, and so does the truncate that would undo the
        partial append: the tail is in an unknown state, so the append is
        indeterminate and the writer broken — but the log stays readable and
        reopens at its committed offset."""
        faults.install(FaultPlan(fsync_error=(2,)))
        wal = WriteAheadLog(tmp_path).open()
        wal.append_record(_record(0))
        committed = wal.log_offset
        wal._file = _TruncateFails(wal._file)
        with pytest.raises(WalIndeterminateError, match="may have been logged") as failed:
            wal.append_record(_record(1))
        assert isinstance(failed.value.__cause__, InjectedFaultError)
        assert wal.broken
        assert wal.log_offset == committed
        with pytest.raises(WalBrokenError):
            wal.append_record(_record(2))
        faults.clear()
        scan = wal.scan()
        assert scan.records[0].record == _record(0)
        assert scan.records[0].end == committed
        wal.close()
        reopened = WriteAheadLog(tmp_path).open(truncate_at=committed)
        try:
            assert reopened.log_offset == committed and not reopened.broken
            reopened.append_record(_record(3))
            assert [entry.record for entry in reopened.scan().records] == [
                _record(0), _record(3),
            ]
        finally:
            reopened.close()

    def test_a_torn_write_whose_undo_fails_is_dropped_on_reopen(self, tmp_path):
        """The half record a failed write left cannot be truncated away: the
        writer is broken, the scan keeps the committed prefix and names the
        torn tail, and the log reopens without it."""
        wal = WriteAheadLog(tmp_path).open()
        wal.append_record(_record(0))
        committed = wal.log_offset
        wal._file = _WriteTornAndTruncateFails(wal._file)
        with pytest.raises(WalIndeterminateError, match="injected short write"):
            wal.append_record(_record(1))
        assert wal.broken and wal.log_offset == committed
        with pytest.raises(WalBrokenError):
            wal.append_record(_record(2))
        scan = wal.scan()
        assert [entry.record for entry in scan.records] == [_record(0)]
        assert scan.truncated
        wal.close()
        reopened = WriteAheadLog(tmp_path).open(truncate_at=committed)
        try:
            assert reopened.log_offset == committed and not reopened.broken
            reopened.append_record(_record(3))
            scan = reopened.scan()
            assert [entry.record for entry in scan.records] == [_record(0), _record(3)]
            assert not scan.truncated
        finally:
            reopened.close()

    def test_failed_batch_sync_does_not_block_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="batch").open()
        wal.append_record(_record(0))
        faults.install(FaultPlan(fsync_error=(1,)))
        with pytest.raises(OSError):
            wal.sync()
        # scan still reads what was flushed, despite the failing fsync
        faults.install(FaultPlan(fsync_error=(1,)))
        assert [entry.record for entry in wal.scan().records] == [_record(0)]
        faults.clear()
        wal.close()


def _serving(daemon):
    """Serve ``daemon`` on a thread; the thread and a list that receives the
    exit code ``serve`` returns."""
    code = []
    thread = threading.Thread(target=lambda: code.append(daemon.serve()), daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    return thread, code


def _stopped(daemon, thread):
    if thread.is_alive():
        daemon.request_shutdown()
        thread.join(60)
    assert not thread.is_alive(), "daemon did not shut down"


def _insert_until_the_undo_fails(daemon, client):
    """Two acked inserts, then one whose fsync fails and whose undo fails
    too (the second fsync after the plan is installed); its refusal."""
    client.insert(make_profile("a0", text="alpha beta"), side=0)
    faults.install(FaultPlan(fsync_error=(2,)))
    client.insert(make_profile("b0", text="alpha gamma"), side=1)
    wal = daemon.session.wal
    wal._file = _TruncateFails(wal._file)
    with pytest.raises(ServeError) as refused:
        client.insert(make_profile("a1", text="beta gamma"), side=0)
    return refused.value


class TestIndeterminateWrites:
    """A daemon's write whose append and undo both failed: answered
    ``indeterminate``, then nothing is answered and the daemon stops."""

    def test_the_reply_is_indeterminate_and_recovery_replays_what_the_scan_holds(
        self, tmp_path, frozen_model
    ):
        directory = tmp_path / "wal"
        daemon = MatchingDaemon(directory, frozen_model, num_shards=1, bilateral=True)
        thread, code = _serving(daemon)
        try:
            with ServeClient(*daemon.address, retries=0) as client:
                refused = _insert_until_the_undo_fails(daemon, client)
                assert refused.error_type == ERROR_INDETERMINATE
                assert "may have been logged" in refused.server_message
                with pytest.raises((ServeError, OSError, ProtocolError)) as read:
                    client.match()
                if isinstance(read.value, ServeError):
                    assert read.value.error_type == ERROR_INDETERMINATE
            # it stops by itself, with the fail-stop exit code
            thread.join(60)
            assert not thread.is_alive() and code == [1]
        finally:
            _stopped(daemon, thread)
        faults.clear()
        # no shutdown checkpoint: only the bootstrap snapshot
        assert len(WriteAheadLog(directory).snapshot_paths()) == 1
        records = [entry.record for entry in WriteAheadLog(directory).scan().records]
        # the refused record's bytes are complete on disk
        assert [record.get("id") for record in records[1:]] == ["a0", "b0", "a1"]
        oracle = reference_replay(records)
        recovered = recover_session(directory)
        try:
            assert recovered.index.has_entity("a1", side=0)
            assert recovered.num_entities == oracle.num_entities
            expected = oracle.candidate_set().canonical
            ours = recovered.index.candidate_set().canonical
            assert np.array_equal(ours.left, expected.left)
            assert np.array_equal(ours.right, expected.right)
            features = DeltaFeatureGenerator(oracle, recovered.model.feature_set)
            candidates, _, mask = exact_answer(features, recovered.model, recovered.pruning)
            assert recovered.retained().retained_id_set() == set(
                candidates.id_pairs(mask, oracle.entity_id)
            )
        finally:
            recovered.close()

    def test_after_it_no_read_or_write_is_answered(self, tmp_path, frozen_model):
        """Held up (its shutdown request swallowed), the daemon refuses every
        read and write ``indeterminate`` — a read would answer from a state
        recovery does not reproduce — and journals nothing more."""
        directory = tmp_path / "wal"
        daemon = MatchingDaemon(directory, frozen_model, num_shards=1, bilateral=True)
        with mock.patch.object(daemon, "request_shutdown") as shutdown:
            thread, code = _serving(daemon)
            try:
                with ServeClient(*daemon.address, retries=0) as client:
                    refused = _insert_until_the_undo_fails(daemon, client)
                    assert refused.error_type == ERROR_INDETERMINATE
                    shutdown.assert_called_once_with()
                    log_bytes = (directory / "wal.log").read_bytes()
                    requests = (
                        client.match,
                        lambda: client.top_k("a0", side=0, k=1),
                        client.stats,
                        lambda: client.insert(make_profile("b1", text="alpha"), side=1),
                        lambda: client.remove("a0", side=0),
                        client.checkpoint,
                    )
                    for request in requests:
                        with pytest.raises(ServeError) as answered:
                            request()
                        assert answered.value.error_type == ERROR_INDETERMINATE
                    assert client.ping()["offset"] < len(log_bytes)
                    assert (directory / "wal.log").read_bytes() == log_bytes
                    assert len(WriteAheadLog(directory).snapshot_paths()) == 1
            finally:
                faults.clear()
        _stopped(daemon, thread)
        assert code == [1]
        assert len(WriteAheadLog(directory).snapshot_paths()) == 1

    def test_a_failed_append_whose_undo_succeeds_is_still_wal_failed(
        self, tmp_path, frozen_model
    ):
        directory = tmp_path / "wal"
        daemon = MatchingDaemon(directory, frozen_model, num_shards=1, bilateral=True)
        thread, code = _serving(daemon)
        try:
            with ServeClient(*daemon.address, retries=0) as client:
                client.insert(make_profile("a0", text="alpha beta"), side=0)
                faults.install(FaultPlan(fsync_error=(2,)))
                client.insert(make_profile("b0", text="alpha gamma"), side=1)
                with pytest.raises(ServeError) as refused:
                    client.insert(make_profile("a1", text="beta gamma"), side=0)
                assert refused.value.error_type == ERROR_WAL
                # the writer survived: the daemon goes on answering
                client.insert(make_profile("b1", text="beta gamma"), side=1)
                assert client.match()["num_candidates"] > 0
        finally:
            faults.clear()
            _stopped(daemon, thread)
        assert code == [0]
        records = [entry.record for entry in WriteAheadLog(directory).scan().records]
        assert [record.get("id") for record in records[1:]] == ["a0", "b0", "b1"]


class TestTornAndCorruptTails:
    @pytest.mark.parametrize("fault", ["torn_append", "corrupt_append"])
    def test_damaged_tail_breaks_writer_but_not_reader(self, tmp_path, fault):
        faults.install(FaultPlan(**{fault: (2,)}))
        wal = WriteAheadLog(tmp_path).open()
        wal.append_record(_record(0))
        with pytest.raises(InjectedFaultError):
            wal.append_record(_record(1))
        assert wal.broken
        with pytest.raises(WalBrokenError):
            wal.append_record(_record(2))
        faults.clear()
        scan = wal.scan()
        assert [entry.record for entry in scan.records] == [_record(0)]
        assert scan.truncated, "the damaged tail bytes are on disk"
        wal.close()

    def test_recovery_reopens_past_a_damaged_tail(self, tmp_path):
        faults.install(FaultPlan(torn_append=(2,)))
        wal = WriteAheadLog(tmp_path).open()
        wal.append_record(_record(0))
        with pytest.raises(InjectedFaultError):
            wal.append_record(_record(1))
        wal.close()
        faults.clear()
        # recovery's discipline: scan, truncate at valid_length, append on
        scan = WriteAheadLog(tmp_path).scan()
        reopened = WriteAheadLog(tmp_path).open(truncate_at=scan.valid_length)
        assert not reopened.broken
        reopened.append_record(_record(2))
        assert [entry.record for entry in reopened.scan().records] == [
            _record(0),
            _record(2),
        ]
        reopened.close()


@st.composite
def _fault_schedule(draw, max_ordinal=16):
    ordinals = st.integers(1, max_ordinal)
    return FaultPlan(
        torn_append=tuple(draw(st.sets(ordinals, max_size=1))),
        corrupt_append=tuple(draw(st.sets(ordinals, max_size=1))),
        fsync_error=tuple(draw(st.sets(ordinals, max_size=2))),
    )


class TestAckedWritesSurviveRecovery:
    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(1, 12), plan=_fault_schedule())
    def test_log_level_acked_appends_equal_scan(self, count, plan):
        tmp = Path(tempfile.mkdtemp())
        try:
            faults.install(plan)
            wal = WriteAheadLog(tmp).open()
            acked = []
            for n in range(count):
                try:
                    wal.append_record(_record(n))
                except OSError:
                    continue  # unacked: injected fault or broken writer
                acked.append(_record(n))
            faults.clear()
            try:
                wal.close()
            except OSError:
                pass  # a broken writer may fail its final sync

            scan = WriteAheadLog(tmp).scan()
            assert [entry.record for entry in scan.records] == acked
        finally:
            faults.clear()
            shutil.rmtree(tmp, ignore_errors=True)

    @settings(max_examples=10, deadline=None)
    @given(
        texts=st.lists(_text, min_size=1, max_size=8),
        plan=_fault_schedule(max_ordinal=10),
    )
    def test_session_level_acked_mutations_survive_recovery(self, texts, plan):
        """Every insert the session acked is present after recovery, and the
        recovered retained set equals an oracle session fed only the acked
        stream — unacked (failed) mutations leave no trace."""
        tmp = Path(tempfile.mkdtemp())
        oracle_dir = Path(tempfile.mkdtemp())
        try:
            # construct first (init journals the meta record and writes
            # snapshot 1), then arm: ordinals count serving-time appends
            session = MatchingSession(MODEL, bilateral=True, wal_path=tmp)
            faults.install(plan)
            acked = []
            for i, text in enumerate(texts):
                side = i % 2
                entity_id = f"{'ab'[side]}{i}"
                try:
                    session.insert(make_profile(entity_id, text=text), side=side)
                except OSError:
                    continue
                acked.append((entity_id, side, text))
            faults.clear()
            try:
                session.close()
            except OSError:
                pass  # a broken writer may fail its final sync

            recovered = recover_session(tmp)
            oracle = MatchingSession(MODEL, bilateral=True, wal_path=oracle_dir)
            try:
                for entity_id, side, _ in acked:
                    assert recovered.index.has_entity(entity_id, side=side), (
                        f"acked insert {entity_id!r} lost across recovery "
                        f"under {plan!r}"
                    )
                for entity_id, side, text in acked:
                    oracle.insert(make_profile(entity_id, text=text), side=side)
                assert reference_retained(recovered) == reference_retained(oracle)
                assert recovered.num_entities == len(acked)
            finally:
                recovered.close()
                oracle.close()
        finally:
            faults.clear()
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(oracle_dir, ignore_errors=True)
