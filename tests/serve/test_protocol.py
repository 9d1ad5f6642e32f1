"""Unit tests for the serving wire protocol (framing, CRC, envelopes)."""

import io
import struct
import zlib

import pytest

from repro.datamodel import EntityProfile, make_profile
from repro.serve.protocol import (
    FRAME_HEADER,
    MAX_MESSAGE_BYTES,
    OPERATIONS,
    ProtocolError,
    decode_payload,
    encode_message,
    error_response,
    ok_response,
    profile_to_wire,
    read_message_from,
    write_message_to,
)
from repro.schema import SchemaError, check


class TestFraming:
    def test_roundtrip(self):
        message = {"op": "insert", "id": 7, "args": {"side": 1, "k": [1, 2]}}
        stream = io.BytesIO()
        write_message_to(stream, message)
        stream.seek(0)
        assert read_message_from(stream) == message

    def test_multiple_messages_in_one_stream(self):
        stream = io.BytesIO()
        messages = [{"id": i, "op": "ping"} for i in range(5)]
        for message in messages:
            write_message_to(stream, message)
        stream.seek(0)
        assert [read_message_from(stream) for _ in range(5)] == messages
        assert read_message_from(stream) is None  # clean EOF

    def test_canonical_encoding_is_deterministic(self):
        a = encode_message({"b": 1, "a": 2})
        b = encode_message({"a": 2, "b": 1})
        assert a == b

    def test_crc_corruption_detected(self):
        blob = bytearray(encode_message({"op": "ping", "id": 1}))
        blob[-1] ^= 0xFF
        stream = io.BytesIO(bytes(blob))
        with pytest.raises(ProtocolError, match="CRC"):
            read_message_from(stream)

    def test_eof_mid_frame_raises(self):
        blob = encode_message({"op": "ping", "id": 1})
        stream = io.BytesIO(blob[: len(blob) - 3])
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_message_from(stream)

    def test_eof_mid_header_raises(self):
        stream = io.BytesIO(b"\x01\x02")
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_message_from(stream)

    def test_oversized_declared_length_rejected_without_reading(self):
        header = FRAME_HEADER.pack(MAX_MESSAGE_BYTES + 1, 0)
        stream = io.BytesIO(header)
        with pytest.raises(ProtocolError, match="cap"):
            read_message_from(stream)

    def test_non_object_payload_rejected(self):
        payload = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(payload, zlib.crc32(payload))

    def test_invalid_json_rejected(self):
        payload = b"{not json"
        with pytest.raises(ProtocolError, match="valid JSON"):
            decode_payload(payload, zlib.crc32(payload))

    def test_header_matches_wal_record_discipline(self):
        # two little-endian uint32s: length + CRC32 — the WAL's record header
        assert FRAME_HEADER.size == struct.calcsize("<II")


class TestProfiles:
    def test_roundtrip(self):
        profile = make_profile("p1", title="alpha beta", venue="x")
        wire = profile_to_wire(profile)
        back = EntityProfile(**check("profile", wire))
        assert back.entity_id == profile.entity_id
        assert dict(back.attributes) == dict(profile.attributes)

    def test_missing_entity_id_rejected(self):
        with pytest.raises(SchemaError, match="profile field 'entity_id': missing"):
            check("profile", {"attributes": {}})

    def test_non_object_attributes_rejected(self):
        with pytest.raises(SchemaError, match="profile field 'attributes': expected object"):
            check("profile", {"entity_id": "x", "attributes": [1]})

    @pytest.mark.parametrize(
        "wire, field",
        [
            ({"entity_id": 17, "attributes": {}}, "entity_id"),
            ({"entity_id": "17", "attributes": {"year": 2004}}, "attributes.year"),
            ({"entity_id": "17", "attributes": {"year": None}}, "attributes.year"),
        ],
    )
    def test_values_are_refused_not_coerced_to_strings(self, wire, field):
        """A number or null where a string belongs is refused by name; it was
        once coerced with ``str()``."""
        with pytest.raises(SchemaError, match=f"profile field '{field}': expected string"):
            check("profile", wire)


class TestEnvelopes:
    def test_ok(self):
        assert ok_response(3, {"x": 1}) == {"id": 3, "ok": True, "result": {"x": 1}}

    def test_error(self):
        response = error_response(4, "unknown_entity", "nope")
        assert response["ok"] is False
        assert response["error"] == {"type": "unknown_entity", "message": "nope"}

    def test_operation_names_are_unique(self):
        assert len(set(OPERATIONS)) == len(OPERATIONS)
