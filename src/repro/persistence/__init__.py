"""WAL-backed durability for the streaming index (paper Section 6 outlook).

``repro.persistence`` journals every :class:`~repro.incremental.MutableBlockIndex`
mutation to a write-ahead log (length+CRC32 framed logical records,
append-before-apply, fsync-on-commit), snapshots the compacted live state
periodically, and recovers by loading the newest complete snapshot and
replaying the log tail to the last complete record — so a crash at any
byte offset loses at most the torn tail record and never the prefix.

See :class:`WriteAheadLog` for the format, :func:`recover_index` /
:func:`recover_session` for the drivers, and the README's "Durability &
recovery" section for the guarantees.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "CONTAINER_MAGIC": "container",
    "META_FORMAT": "container",
    "SNAPSHOT_FORMAT": "container",
    "StateFormatError": "container",
    "check_state_format": "container",
    "LOG_MAGIC": "log",
    "WalRecord": "log",
    "WalScan": "log",
    "WriteAheadLog": "log",
    "encode_record": "log",
    "apply_logged_record": "recovery",
    "recover_index": "recovery",
    "recover_session": "recovery",
    "build_index_from_state": "snapshot",
    "canonical_pair_keys": "snapshot",
    "construct_index": "snapshot",
    "dump_index_state": "snapshot",
    "session_snapshot_state": "snapshot",
    "write_index_snapshot": "snapshot",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
