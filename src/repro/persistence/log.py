"""Write-ahead log with length+CRC32 record framing and atomic snapshots.

The log follows the three WAL rules of embedded write-ahead-logging engines
(append-before-apply, fsync-on-commit, replay-to-last-complete-record):

* **Append before apply.**  :class:`MutableBlockIndex` appends a logical
  record describing a mutation *before* touching any aggregate, and only
  after the mutation's arguments were validated — so the log never holds an
  operation that would fail on replay.
* **Fsync on commit.**  In the default ``sync="always"`` mode every append
  is flushed and fsynced before it returns; ``sync="batch"`` flushes to the
  OS per append and fsyncs only on :meth:`WriteAheadLog.sync`/close,
  trading the tail of the log for throughput.
* **Replay to the last complete record.**  Every record is framed as
  ``uint32 payload length + uint32 CRC32 + payload``; :meth:`WriteAheadLog.scan`
  reads records until the first incomplete or corrupt frame and reports the
  byte offset of the last good one.  A crash mid-append therefore loses at
  most the torn tail record — never the prefix.

Records are logical operations (entity id, side, signature lists) encoded
as canonical JSON, not physical page images: every index mutation is a
deterministic function of the operation sequence, so replaying the logical
log reproduces the uninterrupted run's canonical view exactly.

Snapshots live next to the log as ``snapshot-NNNNNN.snap`` files, written
atomically (temp file + fsync + rename + directory fsync) as array
containers (:mod:`repro.persistence.container`: magic, CRC32, a JSON header
and raw buffers — nothing in a WAL directory is unpickled).  Each snapshot
embeds the log offset it covers, so recovery replays only the log tail behind
the newest snapshot.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import faults
from ..obs import events
from ..obs.trace import hook_span
from .container import decode_container, encode_container

#: first bytes of every log file; a file not starting with it is not a WAL
LOG_MAGIC = b"RPROWAL1"

#: log record frame: payload length (uint32) + CRC32 of the payload (uint32)
_RECORD_HEADER = struct.Struct("<II")

#: hard cap on one record's payload; a corrupted length field must not make
#: the scanner attempt a multi-gigabyte read
MAX_RECORD_BYTES = 1 << 30


class WalBrokenError(OSError):
    """The writer left bad bytes on the log tail and refuses further appends.

    Raised after an append failure that could not be undone in place (or an
    injected torn/corrupt tail): the file may end in a partial or invalid
    frame, so appending behind it would bury the damage inside the log.  A
    broken log is still *readable* — :meth:`WriteAheadLog.scan` drops the
    bad tail — and recovery reopens it with ``truncate_at`` as usual.
    """


def encode_record(record: Dict[str, Any]) -> bytes:
    """Frame one logical record: header (length + CRC32) and JSON payload."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError("WAL record exceeds the maximum payload size")
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _frame_end(data: bytes, position: int) -> Optional[int]:
    """The offset just past the frame at ``position``; ``None`` unless the
    frame is complete (header and payload) and its payload CRC-valid."""
    header_end = position + _RECORD_HEADER.size
    if header_end > len(data):
        return None
    length, crc = _RECORD_HEADER.unpack_from(data, position)
    end = header_end + length
    if length > MAX_RECORD_BYTES or end > len(data):
        return None
    return end if zlib.crc32(memoryview(data)[header_end:end]) == crc else None


def _is_record_boundary(data: bytes, start: int) -> bool:
    """Whether a frame of the log ``data`` begins (or the log ends) at ``start``.

    The frames before ``start`` are walked by their length fields alone —
    no CRC, no decode — and a walk that lands on ``start`` proves it.  One
    that does not (``start`` inside a frame, or a damaged length field
    before it) is settled by the frame at ``start`` itself, which must then
    be complete and CRC-valid.
    """
    position = len(LOG_MAGIC)
    while position < start and position + _RECORD_HEADER.size <= len(data):
        position += _RECORD_HEADER.size + _RECORD_HEADER.unpack_from(data, position)[0]
    return position == start or start == len(data) or (
        start >= len(LOG_MAGIC) and _frame_end(data, start) is not None
    )


@dataclass(frozen=True)
class WalRecord:
    """One complete log record plus its byte extent in the file."""

    #: byte offset of the record's header
    start: int
    #: byte offset just past the record's payload
    end: int
    #: the decoded logical operation
    record: Dict[str, Any]


@dataclass(frozen=True)
class WalScan:
    """The result of reading a log file up to its last complete record."""

    #: every complete, CRC-valid record in file order
    records: List[WalRecord]
    #: byte offset just past the last complete record
    valid_length: int
    #: total file size; larger than ``valid_length`` when the tail is torn
    file_length: int

    @property
    def truncated(self) -> bool:
        """Whether a torn or corrupt tail was dropped."""
        return self.file_length > self.valid_length


class WriteAheadLog:
    """A directory holding one append-only log plus its snapshots.

    Parameters
    ----------
    path:
        Directory for ``wal.log`` and ``snapshot-*.snap`` (created if
        missing).
    sync:
        ``"always"`` (default) fsyncs every append — the commit rule;
        ``"batch"`` flushes per append and fsyncs only on :meth:`sync` /
        :meth:`close`.
    """

    def __init__(self, path: Union[str, Path], sync: str = "always") -> None:
        if sync not in ("always", "batch"):
            raise ValueError("sync must be 'always' or 'batch'")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.log_path = self.path / "wal.log"
        self.sync_mode = sync
        self._file = None
        self._offset = self._current_size()
        self._broken = False

    def _current_size(self) -> int:
        try:
            return self.log_path.stat().st_size
        except FileNotFoundError:
            return 0

    # -- writer lifecycle --------------------------------------------------------
    def open(self, truncate_at: Optional[int] = None) -> "WriteAheadLog":
        """Open the log for appending; create it (with magic) when missing.

        ``truncate_at`` discards everything past that byte offset first —
        recovery passes the scan's ``valid_length`` so a torn tail is
        physically dropped before new records are appended behind it.
        """
        if self._file is not None:
            return self
        if self.log_path.exists():
            handle = open(self.log_path, "r+b")
            size = os.fstat(handle.fileno()).st_size
            if size < len(LOG_MAGIC):
                handle.seek(0)
                handle.write(LOG_MAGIC)
                handle.truncate(len(LOG_MAGIC))
                size = len(LOG_MAGIC)
            if truncate_at is not None and truncate_at < size:
                dropped = size - max(truncate_at, len(LOG_MAGIC))
                size = max(truncate_at, len(LOG_MAGIC))
                handle.truncate(size)
                events.emit("wal_truncated", offset=size, dropped_bytes=dropped)
            handle.seek(0, os.SEEK_END)
            handle.flush()
            os.fsync(handle.fileno())
        else:
            handle = open(self.log_path, "w+b")
            handle.write(LOG_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
            # the new file's directory entry must be durable too, or a crash
            # can unlink a log whose records were already acknowledged
            self._fsync_directory()
            size = len(LOG_MAGIC)
        self._file = handle
        self._offset = size
        return self

    @property
    def log_offset(self) -> int:
        """The current append offset (== the log's valid size)."""
        if self._file is not None:
            return self._offset
        return self._current_size()

    @property
    def is_fresh(self) -> bool:
        """Whether no record has ever been appended (magic only, or empty)."""
        return self.log_offset <= len(LOG_MAGIC)

    def is_empty(self) -> bool:
        """Whether the directory holds neither records nor snapshots."""
        return self.is_fresh and not self.snapshot_paths()

    @property
    def broken(self) -> bool:
        """Whether the writer is failed (see :class:`WalBrokenError`)."""
        return self._broken

    def append_record(self, record: Dict[str, Any]) -> int:
        """Append one logical record; returns the offset just past it.

        Under ``sync="always"`` the record is durable when this returns.

        A failed write/flush/fsync truncates the file back to the last
        committed offset before re-raising, so the append either happened
        entirely or not at all; when even the truncate fails the log is
        marked broken and every further append raises
        :class:`WalBrokenError`.
        """
        if self._broken:
            raise WalBrokenError(
                f"{self.log_path} writer failed mid-append and was not "
                "repaired; recover the directory to continue"
            )
        if self._file is None:
            self.open()
        blob = encode_record(record)
        damage = faults.on_wal_append()
        if damage is not None:
            self._inject_tail_damage(blob, damage)
        try:
            # attributed to the active request trace, when one is active on
            # this thread (the daemon's mutation thread activates it)
            with hook_span("wal-append", bytes=len(blob)):
                self._file.write(blob)
                self._file.flush()
                if self.sync_mode == "always":
                    faults.on_wal_fsync()
                    os.fsync(self._file.fileno())
        except OSError:
            self._undo_partial_append()
            raise
        self._offset += len(blob)
        events.emit("wal_append", offset=self._offset, bytes=len(blob))
        return self._offset

    def _inject_tail_damage(self, blob: bytes, damage: str) -> None:
        """Write an injected torn or bit-flipped tail, mark broken, raise."""
        if damage == "torn":
            bad = blob[: max(1, len(blob) // 2)]
        else:
            flipped = bytearray(blob)
            flipped[-1] ^= 0xFF
            bad = bytes(flipped)
        self._file.write(bad)
        self._file.flush()
        self._broken = True
        events.emit("wal_broken", cause=f"injected {damage} tail", offset=self._offset)
        raise faults.InjectedFaultError(f"injected {damage} WAL tail")

    def _undo_partial_append(self) -> None:
        """Restore the append-or-nothing invariant after a failed append.

        Whatever prefix of the record reached the file is truncated away;
        the committed offset is untouched, so the writer keeps working.  If
        the truncate itself fails the tail state is unknown and the log is
        marked broken.
        """
        try:
            self._file.seek(self._offset)
            self._file.truncate()
            self._file.flush()
            self._file.seek(0, os.SEEK_END)
        except OSError:
            self._broken = True
            events.emit(
                "wal_broken", cause="undo of a partial append failed",
                offset=self._offset,
            )

    def sync(self) -> None:
        """Flush and fsync pending appends (a no-op when nothing is open)."""
        if self._file is not None:
            self._file.flush()
            faults.on_wal_fsync()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Fsync and close the writer; the log can be reopened later."""
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -----------------------------------------------------------------
    def scan(self, start: Optional[int] = None) -> WalScan:
        """Read every complete record from ``start`` on, dropping a torn or
        corrupt tail.

        The scan stops at the first frame that is incomplete (header or
        payload cut short), fails its CRC, or does not decode as JSON — the
        replay-to-last-complete-record rule.  It never raises on torn data;
        a missing or empty file scans empty, and only a wrong magic is an
        error.

        ``start`` is a record boundary something durable vouches for — a
        snapshot's embedded ``log_offset`` — and the scan then decodes only
        the tail behind it: ``records`` holds the records at or past
        ``start`` and ``valid_length`` is what a whole-log scan of an intact
        prefix reports, while damage *before* ``start`` no longer hides the
        records behind it.  A ``start`` that is not a record boundary is
        refused with :class:`ValueError`; one past the end of the file (a
        snapshot that outlived an unsynced log tail under ``sync="batch"``)
        scans the whole log.
        """
        try:
            self.sync()
        except OSError:
            # a failed writer must not block reading what did commit
            pass
        try:
            data = self.log_path.read_bytes()
        except FileNotFoundError:
            return WalScan(records=[], valid_length=0, file_length=0)
        if len(data) < len(LOG_MAGIC) or data[: len(LOG_MAGIC)] != LOG_MAGIC:
            if len(data) == 0:
                return WalScan(records=[], valid_length=0, file_length=0)
            raise ValueError(f"{self.log_path} is not a repro write-ahead log")
        position = len(LOG_MAGIC)
        if start is not None and start <= len(data):
            if not _is_record_boundary(data, start):
                raise ValueError(
                    f"offset {start} is not a record boundary of {self.log_path}"
                )
            position = start
        records: List[WalRecord] = []
        while True:
            end = _frame_end(data, position)
            if end is None:
                break
            payload = data[position + _RECORD_HEADER.size : end]
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            records.append(WalRecord(start=position, end=end, record=decoded))
            position = end
        return WalScan(records=records, valid_length=position, file_length=len(data))

    # -- snapshots ---------------------------------------------------------------
    def snapshot_paths(self) -> List[Path]:
        """Snapshot files in ascending sequence order."""
        return sorted(self.path.glob("snapshot-*.snap"))

    def write_snapshot(self, state: Dict[str, Any]) -> Path:
        """Write ``state`` as the next snapshot, atomically.

        ``state`` is a tree of JSON values and NumPy arrays whose ``"format"``
        is the container version (:func:`~repro.persistence.container.encode_container`);
        the file is fsynced, renamed into place, and the directory fsynced,
        so a crash leaves either the complete snapshot or none — never a
        partial file under the final name.
        """
        existing = self.snapshot_paths()
        sequence = 1 + max(
            (self._snapshot_sequence(path) for path in existing), default=0
        )
        buffers = encode_container(state)
        size = sum(memoryview(buffer).nbytes for buffer in buffers)
        final = self.path / f"snapshot-{sequence:06d}.snap"
        temporary = self.path / f"snapshot-{sequence:06d}.tmp"
        with hook_span("wal-snapshot", sequence=sequence, bytes=size):
            with open(temporary, "wb") as handle:
                handle.writelines(buffers)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, final)
            self._fsync_directory()
        events.emit(
            "wal_snapshot",
            sequence=sequence,
            bytes=size,
            log_offset=int(state.get("log_offset", -1)),
        )
        return final

    @staticmethod
    def _snapshot_sequence(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def _fsync_directory(self) -> None:
        descriptor = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def load_snapshot(self, path: Path) -> Optional[Dict[str, Any]]:
        """Decode one snapshot file; ``None`` when incomplete or corrupt.

        Raises :class:`~repro.persistence.container.StateFormatError` for a
        format-1 (pickled) snapshot, which is never unpickled.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return None
        return decode_container(data)

    def latest_snapshot(self) -> Optional[Dict[str, Any]]:
        """The newest snapshot that decodes and CRC-validates, if any.

        A corrupt newest snapshot (crash while the previous process wrote
        it outside the atomic protocol, bit rot) falls back to the next
        older one rather than failing recovery; a format-1 one is refused.
        """
        for path in reversed(self.snapshot_paths()):
            state = self.load_snapshot(path)
            if state is not None:
                return state
        return None
