"""The snapshot container: raw NumPy buffers behind a small JSON header.

A snapshot is a tree of JSON values and NumPy arrays (nested ``dict``s with
``str`` keys).  The container stores the tree with its arrays taken out, then
the arrays as raw buffers — nothing in it is code, and nothing is unpickled::

    magic        8 bytes   CONTAINER_MAGIC
    crc32        uint32    of every byte after this field
    version      uint32    the state format (SNAPSHOT_FORMAT)
    header size  uint64    bytes of the JSON header
    JSON header  UTF-8     {"state": <tree without arrays>,
                            "arrays": [[path, dtype, shape, offset], ...]}
    padding      zeros to the next multiple of 8
    body         each array's raw little-endian buffer at an 8-byte-aligned
                 ``offset`` from the body's start

An array's ``path`` names its place in the tree (``"index/indices"``); its
``dtype`` comes from a fixed numeric whitelist.  :func:`decode_container`
checks the CRC, the header and every table entry — dtype, shape, offset and
extent against the body — *before* it makes the first view, so a torn, flipped
or hostile file decodes to ``None`` and never to a partial state.

Snapshot format 1 pickled the state: a file that starts with its magic is
refused by name (:class:`StateFormatError`) before any byte of it is read as
anything but that magic.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: first bytes of a snapshot container
CONTAINER_MAGIC = b"RPROARRS"
#: first bytes of a format-1 snapshot (a framed pickle), refused on sight
LEGACY_SNAPSHOT_MAGIC = b"RPROSNP1"
#: the version a snapshot container is written in, and the only one read
SNAPSHOT_FORMAT = 2
#: the ``format`` of the log's JSON ``meta`` record
META_FORMAT = 1

#: magic, CRC32 of the rest, version, JSON header size
_FIXED = struct.Struct("<8sIIQ")
#: the bytes the CRC covers start right after the CRC field
_CRC_FROM = len(CONTAINER_MAGIC) + 4
#: the dtypes a container may hold: the little-endian numeric ones snapshots use
DTYPES = {
    dtype.str: dtype for dtype in map(np.dtype, ("int8", "uint8", "uint32", "int64", "float64"))
}
#: separates the keys of an array's path through the state tree
_SEPARATOR = "/"

_FORMATS = {"snapshot": SNAPSHOT_FORMAT, "log meta record": META_FORMAT}


class StateFormatError(ValueError):
    """A snapshot or log ``meta`` record was written in a state format this
    version does not read."""


def check_state_format(state: Dict[str, Any], source: str = "snapshot") -> None:
    """Refuse a snapshot (``source="snapshot"``) or log ``meta`` record
    (``source="log meta record"``) whose ``format`` this version does not
    read: :data:`SNAPSHOT_FORMAT` and :data:`META_FORMAT` respectively."""
    expected = _FORMATS[source]
    found = state.get("format")
    if found != expected:
        raise StateFormatError(
            f"the {source} holds state format {found!r}; this version reads "
            f"format {expected} only"
        )


def _aligned(size: int) -> int:
    return -(-size // 8) * 8


def _take_arrays(tree: Dict[str, Any], prefix: str, found: List[Tuple[str, np.ndarray]]):
    """``tree`` without its array leaves, which are appended to ``found``."""
    kept = {}
    for key, value in tree.items():
        if not isinstance(key, str) or _SEPARATOR in key:
            raise ValueError(f"snapshot state key {key!r} is not a plain string")
        path = f"{prefix}{key}"
        if isinstance(value, np.ndarray):
            found.append((path, value))
        elif isinstance(value, dict):
            kept[key] = _take_arrays(value, path + _SEPARATOR, found)
        else:
            kept[key] = value
    return kept


def encode_container(state: Dict[str, Any]) -> List[Any]:
    """The container of ``state`` as a list of buffers to write in order.

    ``state["format"]`` is the version field; every other entry is a JSON
    value, an array of a :data:`DTYPES` dtype, or a nested dict of those.
    """
    state = dict(state)
    version = int(state.pop("format"))
    arrays: List[Tuple[str, np.ndarray]] = []
    tree = _take_arrays(state, "", arrays)
    table, chunks, offset = [], [], 0
    for path, array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.str not in DTYPES:
            raise ValueError(f"array {path!r} has dtype {array.dtype}, which no container holds")
        table.append([path, array.dtype.str, list(array.shape), offset])
        chunks.append(array.reshape(-1).view(np.uint8))
        offset += array.nbytes
        padding = _aligned(offset) - offset
        if padding:
            chunks.append(bytes(padding))
            offset += padding
    header = json.dumps({"state": tree, "arrays": table}, separators=(",", ":")).encode("utf-8")
    tail = [
        struct.pack("<IQ", version, len(header)),
        header,
        bytes(_aligned(_FIXED.size + len(header)) - _FIXED.size - len(header)),
        *chunks,
    ]
    crc = 0
    for chunk in tail:
        crc = zlib.crc32(chunk, crc)
    return [CONTAINER_MAGIC + struct.pack("<I", crc), *tail]


def _table_entries(
    table: Any, body_size: int
) -> Optional[List[Tuple[List[str], np.dtype, Tuple[int, ...], int, int]]]:
    """The validated ``(path keys, dtype, shape, offset, count)`` of every
    array, or ``None`` when one entry is malformed or reaches outside the
    body."""
    if not isinstance(table, list):
        return None
    entries = []
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 4):
            return None
        path, dtype, shape, offset = entry
        if not isinstance(path, str) or not path or dtype not in DTYPES:
            return None
        if not isinstance(shape, list) or not all(
            type(extent) is int and extent >= 0 for extent in shape
        ):
            return None
        if type(offset) is not int or offset < 0 or offset % 8:
            return None
        count = 1
        for extent in shape:
            count *= extent
        if offset + count * DTYPES[dtype].itemsize > body_size:
            return None
        entries.append((path.split(_SEPARATOR), DTYPES[dtype], tuple(shape), offset, count))
    return entries


def _place(tree: Dict[str, Any], keys: Sequence[str], value: Any) -> bool:
    """Put ``value`` at ``keys`` in ``tree``; ``False`` on a clash."""
    for key in keys[:-1]:
        tree = tree.setdefault(key, {})
        if not isinstance(tree, dict):
            return False
    if not keys[-1] or keys[-1] in tree:
        return False
    tree[keys[-1]] = value
    return True


def decode_container(data: bytes) -> Optional[Dict[str, Any]]:
    """The state a container holds, with ``"format"`` set to its version;
    ``None`` when the bytes are not a complete, intact container.

    The arrays are read-only views into ``data``.  A container of another
    version decodes to ``{"format": version}`` alone, for
    :func:`check_state_format` to refuse by name.

    Raises
    ------
    StateFormatError
        When ``data`` is a format-1 (pickled) snapshot.
    """
    if data[: len(LEGACY_SNAPSHOT_MAGIC)] == LEGACY_SNAPSHOT_MAGIC:
        raise StateFormatError(
            f"the snapshot holds state format 1 (a pickle, which this version "
            f"never loads); this version reads format {SNAPSHOT_FORMAT} only"
        )
    if len(data) < _FIXED.size:
        return None
    magic, crc, version, header_size = _FIXED.unpack_from(data)
    if magic != CONTAINER_MAGIC or zlib.crc32(memoryview(data)[_CRC_FROM:]) != crc:
        return None
    if version != SNAPSHOT_FORMAT:
        return {"format": version}
    body_start = _aligned(_FIXED.size + header_size)
    if body_start > len(data):
        return None
    try:
        header = json.loads(bytes(data[_FIXED.size : _FIXED.size + header_size]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError):
        return None
    if not isinstance(header, dict) or not isinstance(header.get("state"), dict):
        return None
    entries = _table_entries(header.get("arrays"), len(data) - body_start)
    if entries is None:
        return None
    state = header["state"]
    for keys, dtype, shape, offset, count in entries:
        view = np.frombuffer(data, dtype=dtype, count=count, offset=body_start + offset)
        if not _place(state, keys, view.reshape(shape)):
            return None
    state["format"] = version
    return state


# -- string tables ------------------------------------------------------------------

def pack_strings(strings: Sequence[str]) -> Dict[str, np.ndarray]:
    """A string list as a UTF-8 blob plus the code-point offset of each
    string's end (``ends[i-1]:ends[i]`` slices string ``i`` out of the text)."""
    text = "".join(strings)
    return {
        "text": np.frombuffer(text.encode("utf-8"), dtype=np.uint8),
        "ends": np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings))),
    }


def unpack_strings(packed: Dict[str, np.ndarray]) -> List[str]:
    """The strings :func:`pack_strings` packed (``ValueError`` when the ends
    do not partition the text)."""
    text = packed["text"].tobytes().decode("utf-8")
    ends = packed["ends"]
    if (
        ends.ndim != 1
        or (np.diff(ends, prepend=0) < 0).any()
        or (int(ends[-1]) if ends.size else 0) != len(text)
    ):
        raise ValueError("a snapshot string table does not partition its text")
    bounds = ends.tolist()
    return [text[start:end] for start, end in zip([0] + bounds[:-1], bounds)]

