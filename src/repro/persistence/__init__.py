"""WAL-backed durability for the streaming index (paper Section 6 outlook).

``repro.persistence`` journals every mutation of a
:class:`~repro.incremental.MatchingSession`'s index to a write-ahead log
(length+CRC32 framed logical records, append-before-apply, fsync-on-commit),
snapshots the session — its index compacted — periodically, and recovers by
loading the newest complete session snapshot and replaying the log tail to
the last complete record — so a crash at any byte offset behind the first
snapshot loses at most the torn tail record and never the prefix.

See :class:`WriteAheadLog` for the format, :func:`recover_session` for the
driver, and the README's "Durability & recovery" section for the guarantees.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "CONTAINER_MAGIC": "container",
    "SNAPSHOT_FORMAT": "container",
    "StateFormatError": "container",
    "check_state_format": "container",
    "LOG_MAGIC": "log",
    "WalRecord": "log",
    "WalScan": "log",
    "WriteAheadLog": "log",
    "encode_record": "log",
    "recover_session": "recovery",
    "build_index_from_state": "snapshot",
    "canonical_pair_keys": "snapshot",
    "construct_index": "snapshot",
    "dump_index_state": "snapshot",
    "session_snapshot_state": "snapshot",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
