"""WAL fault semantics + the acked-write-survival properties.

The write-ahead log's contract under injected failures:

* a failed **fsync** undoes the partial append (append-or-nothing) and the
  writer keeps working — the log is *not* broken; only when the undo fails
  too is the writer broken, and the log reopens at its committed offset;
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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import make_frozen_model, reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FaultPlan, InjectedFaultError
from repro.incremental import MatchingSession
from repro.persistence.log import WalBrokenError, WriteAheadLog
from repro.persistence.recovery import recover_session

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
        partial append: the tail is in an unknown state, so the writer is
        broken — but the log stays readable and reopens at its committed
        offset."""
        faults.install(FaultPlan(fsync_error=(2,)))
        wal = WriteAheadLog(tmp_path).open()
        wal.append_record(_record(0))
        committed = wal.log_offset
        wal._file = _TruncateFails(wal._file)
        with pytest.raises(InjectedFaultError):
            wal.append_record(_record(1))
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
        with pytest.raises(OSError, match="injected short write"):
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
