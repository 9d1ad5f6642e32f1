"""Unit tests for the WAL record framing and snapshot files.

The torn-tail sweep is the core durability property at the byte level: a
log truncated at *every* possible offset must scan to exactly the records
whose frames fully survived, never raising and never resurrecting a partial
record.
"""

import os

import pytest

from repro.persistence import LOG_MAGIC, SNAPSHOT_FORMAT, WriteAheadLog, encode_record


def _records(n):
    return [{"op": "add", "id": f"e{i}", "side": 0, "sig": [f"t{i}", "c"]} for i in range(n)]


def _write_log(path, records, sync="always"):
    wal = WriteAheadLog(path, sync=sync)
    with wal:
        for record in records:
            wal.append_record(record)
    return wal


class TestFraming:
    def test_round_trip(self, tmp_path):
        records = _records(5)
        _write_log(tmp_path / "w", records)
        scan = WriteAheadLog(tmp_path / "w").scan()
        assert [entry.record for entry in scan.records] == records
        assert not scan.truncated
        assert scan.valid_length == scan.file_length

    def test_record_extents_are_contiguous(self, tmp_path):
        records = _records(3)
        _write_log(tmp_path / "w", records)
        scan = WriteAheadLog(tmp_path / "w").scan()
        position = len(LOG_MAGIC)
        for entry in scan.records:
            assert entry.start == position
            position = entry.end
        assert scan.valid_length == position

    def test_missing_file_scans_empty(self, tmp_path):
        scan = WriteAheadLog(tmp_path / "w").scan()
        assert scan.records == [] and scan.valid_length == 0

    def test_wrong_magic_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        wal.log_path.write_bytes(b"NOTAWALFILE" + encode_record({"op": "meta"}))
        with pytest.raises(ValueError, match="not a repro write-ahead log"):
            wal.scan()

    def test_torn_tail_sweep_every_byte(self, tmp_path):
        """Truncating at every byte offset yields exactly the full frames."""
        records = _records(4)
        _write_log(tmp_path / "w", records)
        full = (tmp_path / "w" / "wal.log").read_bytes()
        boundaries = [entry.end for entry in WriteAheadLog(tmp_path / "w").scan().records]
        for cut in range(len(LOG_MAGIC), len(full) + 1):
            target = tmp_path / "cut"
            target.mkdir(exist_ok=True)
            (target / "wal.log").write_bytes(full[:cut])
            scan = WriteAheadLog(target).scan()
            expected = sum(1 for boundary in boundaries if boundary <= cut)
            assert len(scan.records) == expected, cut
            assert scan.valid_length == (
                boundaries[expected - 1] if expected else len(LOG_MAGIC)
            )
            assert scan.truncated == (scan.valid_length < cut)

    def test_corrupt_payload_byte_stops_the_scan(self, tmp_path):
        records = _records(4)
        _write_log(tmp_path / "w", records)
        log = tmp_path / "w" / "wal.log"
        data = bytearray(log.read_bytes())
        second_start = WriteAheadLog(tmp_path / "w").scan().records[1].start
        data[second_start + 10] ^= 0xFF  # flip a bit inside record 2
        log.write_bytes(bytes(data))
        scan = WriteAheadLog(tmp_path / "w").scan()
        assert [entry.record for entry in scan.records] == records[:1]
        assert scan.truncated

    def test_insane_length_field_stops_the_scan(self, tmp_path):
        _write_log(tmp_path / "w", _records(1))
        log = tmp_path / "w" / "wal.log"
        with open(log, "ab") as handle:  # header claiming a multi-GiB payload
            handle.write(b"\xff\xff\xff\xff\xff\xff\xff\xff")
        scan = WriteAheadLog(tmp_path / "w").scan()
        assert len(scan.records) == 1 and scan.truncated

    def test_open_truncates_torn_tail_and_appends_behind_it(self, tmp_path):
        records = _records(3)
        _write_log(tmp_path / "w", records)
        log = tmp_path / "w" / "wal.log"
        data = log.read_bytes()
        log.write_bytes(data[:-5])  # tear the last record
        wal = WriteAheadLog(tmp_path / "w")
        scan = wal.scan()
        assert len(scan.records) == 2
        with wal.open(truncate_at=scan.valid_length):
            wal.append_record({"op": "remove", "id": "e0", "side": 0})
        replayed = [entry.record for entry in WriteAheadLog(tmp_path / "w").scan().records]
        assert replayed == records[:2] + [{"op": "remove", "id": "e0", "side": 0}]

    def test_batch_mode_survives_scan_after_close(self, tmp_path):
        records = _records(6)
        _write_log(tmp_path / "w", records, sync="batch")
        scan = WriteAheadLog(tmp_path / "w").scan()
        assert [entry.record for entry in scan.records] == records


class TestTailScan:
    """``scan(start)``: recovery decodes the tail behind a snapshot's offset."""

    def _log(self, tmp_path, n=5):
        _write_log(tmp_path / "w", _records(n))
        path = tmp_path / "w" / "wal.log"
        return path, WriteAheadLog(tmp_path / "w").scan()

    def test_every_boundary_at_every_truncation_equals_the_whole_scan(self, tmp_path):
        path, complete = self._log(tmp_path, n=4)
        full = path.read_bytes()
        starts = [len(LOG_MAGIC)] + [entry.end for entry in complete.records]
        for cut in range(len(LOG_MAGIC), len(full) + 1):
            path.write_bytes(full[:cut])
            wal = WriteAheadLog(tmp_path / "w")
            whole = wal.scan()
            for start in (start for start in starts if start <= cut):
                tail = wal.scan(start)
                assert tail.records == [e for e in whole.records if e.start >= start]
                assert tail.valid_length == whole.valid_length, (cut, start)
                assert tail.file_length == cut

    def test_the_first_record_is_reported_wherever_the_scan_starts(self, tmp_path):
        """Session recovery checks the log's ``meta`` record from a scan
        that starts past it; a log torn inside that record reports none."""
        path, complete = self._log(tmp_path, n=3)
        full = path.read_bytes()
        head = complete.records[0]
        wal = WriteAheadLog(tmp_path / "w")
        for start in [len(LOG_MAGIC)] + [entry.end for entry in complete.records]:
            assert wal.scan(start).first == head.record
        for cut in range(len(LOG_MAGIC), head.end):
            path.write_bytes(full[:cut])
            assert WriteAheadLog(tmp_path / "w").scan(len(LOG_MAGIC)).first is None

    def test_a_start_inside_a_record_is_refused(self, tmp_path):
        _, complete = self._log(tmp_path)
        boundaries = {len(LOG_MAGIC)} | {entry.end for entry in complete.records}
        wal = WriteAheadLog(tmp_path / "w")
        for start in range(complete.file_length):
            if start not in boundaries:
                with pytest.raises(ValueError, match=f"offset {start} is not a record boundary"):
                    wal.scan(start)

    def test_a_start_past_the_end_scans_the_whole_log(self, tmp_path):
        """``sync="batch"``: a snapshot can outlive the log tail it covers."""
        _, complete = self._log(tmp_path)
        assert WriteAheadLog(tmp_path / "w").scan(complete.file_length + 40) == complete

    @pytest.mark.parametrize("field", ["payload", "length"])
    def test_damage_before_the_start_does_not_hide_the_tail(self, tmp_path, field):
        path, complete = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        second = complete.records[1]
        data[second.start + (12 if field == "payload" else 0)] ^= 0xFF
        path.write_bytes(bytes(data))
        wal = WriteAheadLog(tmp_path / "w")
        assert len(wal.scan().records) == 1  # the whole-log scan stops at the damage
        start = complete.records[2].end
        tail = wal.scan(start)
        assert tail.records == complete.records[3:]
        assert tail.valid_length == complete.valid_length and not tail.truncated


def _state(value):
    """A minimal snapshot state: the container version plus one value."""
    return {"format": SNAPSHOT_FORMAT, "state": value}


class TestSnapshots:
    def test_snapshot_round_trip_and_sequencing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        first = wal.write_snapshot(_state(1))
        second = wal.write_snapshot(_state(2))
        assert [path.name for path in wal.snapshot_paths()] == [
            first.name,
            second.name,
        ]
        assert wal.latest_snapshot() == _state(2)
        assert not list((tmp_path / "w").glob("*.tmp"))

    def test_corrupt_newest_snapshot_falls_back_to_older(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        wal.write_snapshot(_state(1))
        newest = wal.write_snapshot(_state(2))
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])  # simulate a partial write
        assert wal.load_snapshot(newest) is None
        assert wal.latest_snapshot() == _state(1)

    def test_is_empty_tracks_records_and_snapshots(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        assert wal.is_empty()
        with wal:
            assert wal.is_empty()  # magic only
            wal.append_record(_records(1)[0])
            assert not wal.is_empty()
        other = WriteAheadLog(tmp_path / "x")
        other.write_snapshot(_state(1))
        assert not other.is_empty()

    def test_fresh_flag(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w")
        with wal:
            assert wal.is_fresh
            wal.append_record(_records(1)[0])
            assert not wal.is_fresh
        assert not WriteAheadLog(tmp_path / "w").is_fresh
