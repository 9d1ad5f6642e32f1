"""Length-prefixed JSON message framing for the matching service.

The wire format mirrors the write-ahead log's record discipline
(:mod:`repro.persistence.log`): every message is framed as

``uint32 payload length + uint32 CRC32(payload) + payload``

where the payload is canonical JSON (sorted keys, no whitespace) encoded as
UTF-8.  HTTP-free and stdlib-only by design: the daemon speaks it over
``asyncio`` streams, the synchronous client over a plain socket file.  The
CRC turns a desynchronised or corrupted stream into an immediate
:class:`ProtocolError` instead of a silently misparsed request.

Requests are objects ``{"op": <name>, "id": <n>, "args": {...}}`` plus an
optional ``"trace": <hex id>`` (minted server-side when omitted) and
``"deadline_ms"``, typed by :mod:`repro.schema` and never coerced; responses
echo the id and the trace id: ``{"id": <n>, "ok": true, "trace": ...,
"result": ...}`` or ``{"id": <n>, "ok": false, "trace": ..., "error":
{"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Optional

from ..datamodel.entity import EntityProfile
from ..schema import TABLES

#: message frame: payload length (uint32) + CRC32 of the payload (uint32) —
#: the WAL's record header, reused verbatim
FRAME_HEADER = struct.Struct("<II")

#: hard cap on one message's payload; a corrupted length field must not make
#: a peer attempt a multi-gigabyte read
MAX_MESSAGE_BYTES = 64 << 20

#: protocol revision announced by ``ping`` — 2 added the optional ``trace``
#: envelope field and the ``metrics`` op (a request without one gets a
#: server-minted trace id).  Since the declared schema, 2 also means typed
#: fields: a request a v2 daemon once coerced into shape is refused by name
PROTOCOL_VERSION = 2

#: every operation the daemon serves: the ``op`` choices of the request table
OPERATIONS = TABLES["request"]["op"].choices

#: operations a client may safely re-send after an ambiguous failure (a
#: send that may or may not have been processed) — reads plus checkpoint,
#: which is idempotent by construction (re-checkpointing the same state
#: just writes another equivalent snapshot)
IDEMPOTENT_OPS = frozenset({"ping", "stats", "metrics", "match", "top_k", "checkpoint"})

#: typed error envelopes of the fault-tolerance layer
#: — the request queue is full; retry after backoff
ERROR_OVERLOADED = "overloaded"
#: — the request's deadline passed before (for mutations: strictly before)
#:   the operation was applied
ERROR_DEADLINE = "deadline"
#: — the write-ahead log failed and the mutation was not logged; the daemon
#:   refuses further mutations
ERROR_WAL = "wal_failed"
#: — the mutation may have been logged (its append and the undo both
#:   failed): recover the directory to learn which; the daemon refuses every
#:   further request and stops
ERROR_INDETERMINATE = "indeterminate"


class ProtocolError(RuntimeError):
    """The byte stream does not frame a valid message."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Frame one message: header (length + CRC32) plus canonical JSON."""
    payload = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError("message exceeds the maximum payload size")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes, crc: int) -> Dict[str, Any]:
    """Validate and decode one frame's payload."""
    if zlib.crc32(payload) != crc:
        raise ProtocolError("message payload failed its CRC check")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"message payload is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message payload must be a JSON object")
    return message


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the {MAX_MESSAGE_BYTES} cap"
        )


# -- asyncio side (daemon) -------------------------------------------------------

async def read_message(reader) -> Optional[Dict[str, Any]]:
    """Read one framed message from an asyncio stream.

    Returns ``None`` on a clean EOF (connection closed *between* frames); a
    connection cut mid-frame raises :class:`ProtocolError`.
    """
    import asyncio

    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    length, crc = FRAME_HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_payload(payload, crc)


async def write_message(writer, message: Dict[str, Any]) -> None:
    """Write one framed message to an asyncio stream and drain it."""
    writer.write(encode_message(message))
    await writer.drain()


# -- synchronous side (client) ---------------------------------------------------

def read_message_from(stream) -> Optional[Dict[str, Any]]:
    """Read one framed message from a binary file-like object (blocking).

    Returns ``None`` on a clean EOF at a frame boundary.
    """
    header = _read_exactly(stream, FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    length, crc = FRAME_HEADER.unpack(header)
    _check_length(length)
    payload = _read_exactly(stream, length, allow_eof=False)
    return decode_payload(payload, crc)


def write_message_to(stream, message: Dict[str, Any]) -> None:
    """Write one framed message to a binary file-like object and flush."""
    stream.write(encode_message(message))
    stream.flush()


def _read_exactly(stream, count: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- payload helpers -------------------------------------------------------------

def profile_to_wire(profile: EntityProfile) -> Dict[str, Any]:
    """An :class:`EntityProfile` as a JSON-encodable object."""
    return {
        "entity_id": profile.entity_id,
        "attributes": dict(profile.attributes),
    }


def error_response(
    request_id: Any, error_type: str, message: str, trace: Optional[str] = None
) -> Dict[str, Any]:
    """A failure response envelope (echoing the request's trace id)."""
    response: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
    if trace is not None:
        response["trace"] = trace
    return response


def ok_response(
    request_id: Any, result: Any, trace: Optional[str] = None
) -> Dict[str, Any]:
    """A success response envelope (echoing the request's trace id)."""
    response: Dict[str, Any] = {"id": request_id, "ok": True, "result": result}
    if trace is not None:
        response["trace"] = trace
    return response
