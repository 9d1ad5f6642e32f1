"""The declared schema, property-tested from its own tables: on disk and on the wire.

Hypothesis strategies are derived from :mod:`repro.schema`'s tables — the
log's record tables, the request envelope and every op's ``args`` table, the
wire profile — and nothing else: a valid instance draws every required field
(and any optional one) within its type and range; a mutation changes exactly
one field of a valid instance: a required field dropped, a value of another
JSON type (a bool where an int belongs, a number where a string belongs,
...), a value out of range, or a field the table does not name.

* Every valid instance is accepted: :func:`~repro.schema.check` returns it
  with its defaults, a log scan hands a valid record back unchanged, and a
  live daemon answers a valid request with anything but ``bad_request`` /
  ``protocol``.
* Every mutation is refused by name: ``check`` names the mutated field; a
  mutated record appended behind a session snapshot stops
  ``MatchingSession.recover`` with ``StateFormatError`` naming it before any
  index is built or any byte moves, and a shard replica following that log
  refuses it too; a mutated request answers ``bad_request`` (``protocol``
  when its ``op`` was the field) naming it, the WAL offset does not move and
  the connection still answers ``ping``.

The cases that crossed both boundaries before the schema existed are pinned by
name beside the property.
"""

import re
import shutil
import socket
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import make_frozen_model
from repro.persistence import StateFormatError, WriteAheadLog, encode_record
from repro.schema import TABLES, Field, SchemaError, check, check_record
from repro.serve import MatchingDaemon
from repro.serve.protocol import read_message_from, write_message_to
from repro.serve.workers import ShardReplica
from test_session_wal import _one_insert_session_log, _refused_before_any_index_is_built

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

_TEXT = st.text(alphabet="abxy z", max_size=5)

#: values of another JSON type than the key's, for a mutation
_WRONG_TYPES = {
    "string": [7, 1.5, None, ["a"], True],
    "int": [True, 1.0, "1", None],
    "number": [True, "1", None, float("nan"), float("inf")],
    "bool": [1, "true", None],
    "array": ["abc", {"a": 1}, 5],
    "object": [[1], "abc"],
}

#: the log's record tables by op, and the wire's ``args`` tables by op
RECORDS = {kind[: -len(" record")]: table for kind, table in TABLES.items() if kind.endswith(" record")}
REQUESTS = {op: TABLES[op] for op in TABLES["request"]["op"].choices}


# -- valid instances ---------------------------------------------------------------

def valid(field: Field):
    """A strategy of the values ``field`` accepts."""
    if field.type in TABLES:
        return instances(TABLES[field.type])
    if field.choices:
        return st.sampled_from(field.choices)
    if field.type == "int":
        low = -5 if field.above is None else int(field.above) + 1
        return st.integers(low, 50)
    if field.type == "number":
        return st.floats(
            min_value=field.above, max_value=1e6, exclude_min=field.above is not None,
            allow_nan=False, allow_infinity=False,
        )
    if field.type == "array" and len(field.items) > 1:
        return st.tuples(*map(valid, field.items)).map(list)
    if field.type == "array":
        return st.lists(valid(field.items[0]), max_size=3)
    if field.type == "object":
        values = valid(field.items[0]) if field.items else st.integers()
        return st.dictionaries(_TEXT, values, max_size=3)
    return {"string": _TEXT, "bool": st.booleans()}[field.type]


def instances(table):
    """A strategy of the objects ``table`` accepts."""
    return st.fixed_dictionaries(
        {name: valid(field) for name, field in table.items() if field.required},
        optional={name: valid(field) for name, field in table.items() if not field.required},
    )


def records():
    return st.sampled_from(sorted(RECORDS)).flatmap(lambda op: instances(RECORDS[op]))


def requests(ops=tuple(REQUESTS)):
    envelope = {name: field for name, field in TABLES["request"].items() if name != "args"}
    return st.sampled_from(ops).flatmap(
        lambda op: instances(dict(envelope, op=Field("string", choices=(op,)))).flatmap(
            lambda message: instances(REQUESTS[op]).map(lambda args: dict(message, args=args))
        )
    )


# -- one-field mutations ---------------------------------------------------------

def _joined(path, name):
    return f"{path}.{name}" if path else name


def _out_of_range(field: Field):
    if field.choices:
        return [f"{field.choices[0]}x" if isinstance(field.choices[0], str) else max(field.choices) + 1]
    if field.above is not None:
        return [field.above - 1, field.above]
    return []


def _mutations(field: Field, value, path, tables):
    """Every ``(path, changed value)`` one change at or inside ``value`` makes."""
    found = [(path, wrong) for wrong in _WRONG_TYPES.get(field.type, _WRONG_TYPES["object"])]
    found += [(path, bad) for bad in _out_of_range(field)]
    if field.type in tables:
        found += _table_mutations(tables[field.type], value, path, tables)
    elif field.type == "array":
        for at, entry in enumerate(value):
            item = field.items[at] if len(field.items) > 1 else field.items[0]
            found += [
                (inner, value[:at] + [changed] + value[at + 1 :])
                for inner, changed in _mutations(item, entry, f"{path}[{at}]", tables)
            ]
    elif field.items:  # an object of items[0] values
        for key, entry in value.items():
            found += [
                (inner, dict(value, **{key: changed}))
                for inner, changed in _mutations(field.items[0], entry, f"{path}.{key}", tables)
            ]
    return found


def _table_mutations(table, value, path, tables):
    """Every ``(path, changed object)`` one change to a field of ``value``
    makes: a required field dropped, an unknown one added, or a field's
    value changed (:func:`_mutations`)."""
    found = [
        (_joined(path, name), {key: entry for key, entry in value.items() if key != name})
        for name, field in table.items()
        if field.required
    ]
    found.append((_joined(path, "bogus"), dict(value, bogus=1)))
    for name, entry in value.items():
        found += [
            (inner, dict(value, **{name: changed}))
            for inner, changed in _mutations(table[name], entry, _joined(path, name), tables)
        ]
    return found


def mutated_records():
    """``(path, record)``: one field of a valid record changed."""
    return records().flatmap(
        lambda record: st.sampled_from(_table_mutations(RECORDS[record["op"]], record, "", TABLES))
    )


def mutated_requests(ops=tuple(REQUESTS)):
    """``(path, message)``: one field of a valid request changed, its
    ``args`` read through the table of its ``op`` (paths ``args.<field>``)."""
    def changes(message):
        kind = f"args:{message['op']}"
        envelope = dict(TABLES["request"], args=Field(kind, required=False))
        return _table_mutations(envelope, message, "", dict(TABLES, **{kind: REQUESTS[message["op"]]}))

    return requests(ops).flatmap(lambda message: st.sampled_from(changes(message)))


def _check_request(message):
    """The daemon's two checks: the envelope, then ``args`` by its op."""
    request = check("request", message)
    return dict(request, args=check(request["op"], request["args"]))


def _refused_field(path):
    """The field a refusal of the request mutated at ``path`` names."""
    return path[len("args.") :] if path.startswith("args.") else path


# -- the tables, through check ---------------------------------------------------

@_SETTINGS
@given(record=records())
def test_every_valid_record_is_accepted_as_it_is(record):
    assert check_record(record) == record


def _with_defaults(table, value):
    """``value`` with every absent optional field of ``table`` (and of the
    tables inside it) at its default."""
    filled = {name: field.default for name, field in table.items()}
    for name, entry in value.items():
        field = table[name]
        if field.type in TABLES:
            entry = _with_defaults(TABLES[field.type], entry)
        elif field.type == "array" and field.items[0].type in TABLES:
            entry = [_with_defaults(TABLES[field.items[0].type], item) for item in entry]
        filled[name] = entry
    return filled


@_SETTINGS
@given(message=requests())
def test_every_valid_request_is_accepted_with_its_defaults(message):
    checked = _check_request(message)
    assert checked["args"] == _with_defaults(REQUESTS[message["op"]], message["args"])
    assert dict(checked, args=None) == dict(
        _with_defaults(TABLES["request"], message), args=None
    )


@_SETTINGS
@given(mutation=mutated_records())
def test_every_mutated_record_is_refused_by_the_field(mutation):
    path, record = mutation
    with pytest.raises(SchemaError) as refused:
        check_record(record)
    assert refused.value.field == path


@_SETTINGS
@given(mutation=mutated_requests())
def test_every_mutated_request_is_refused_by_the_field(mutation):
    path, message = mutation
    with pytest.raises(SchemaError) as refused:
        _check_request(message)
    assert refused.value.field == _refused_field(path)


# -- on disk ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def session_log():
    """A one-insert session's WAL directory (snapshot + log), never modified."""
    with tempfile.TemporaryDirectory() as directory:
        yield _one_insert_session_log(Path(directory) / "wal")


def _appended(session_log, directory, record):
    """A copy of ``session_log`` under ``directory`` with ``record`` appended."""
    wal = Path(directory) / "wal"
    shutil.copytree(session_log, wal)
    with open(wal / "wal.log", "ab") as log:
        log.write(encode_record(record))
    return wal


def _refused_on_disk(session_log, record, path):
    """Recovery and a shard replica both refuse ``record`` naming ``path``."""
    named = re.escape(f"field {path!r}")
    with tempfile.TemporaryDirectory() as directory:
        wal = _appended(session_log, directory, record)
        offset = WriteAheadLog(wal).log_path.stat().st_size - len(encode_record(record))
        _refused_before_any_index_is_built(wal, StateFormatError, f"offset {offset} .*{named}")
        replica = ShardReplica(wal, shard=0, num_shards=1)
        try:
            with pytest.raises(StateFormatError, match=named):
                replica.catch_up(offset + len(encode_record(record)))
        finally:
            replica.close()


@_SETTINGS
@given(record=records())
def test_a_valid_record_scans_back_unchanged(session_log, record):
    with tempfile.TemporaryDirectory() as directory:
        wal = _appended(session_log, directory, record)
        assert WriteAheadLog(wal).scan().records[-1].record == record


@settings(_SETTINGS, max_examples=60)
@given(mutation=mutated_records())
def test_a_mutated_record_is_refused_before_any_index_is_built(session_log, mutation):
    path, record = mutation
    _refused_on_disk(session_log, record, path)


@settings(_SETTINGS, max_examples=40)
@given(mutation=mutated_records())
def test_the_writer_refuses_what_the_reader_refuses(mutation):
    """A record the log would refuse on recovery is refused by
    :meth:`WriteAheadLog.append_record` by the same field, before a byte
    is written."""
    path, record = mutation
    with tempfile.TemporaryDirectory() as directory:
        with WriteAheadLog(Path(directory) / "wal") as wal:
            size = wal.log_offset
            with pytest.raises(SchemaError) as refused:
                wal.append_record(record)
            assert wal.log_offset == size == wal.log_path.stat().st_size
    assert refused.value.field == path


_MEASURED_RECORDS = [
    ({"op": "add", "id": "x", "side": 0}, "sig"),
    ({"op": "add", "id": "x", "side": 0, "sig": 5}, "sig"),
    ({"op": "add", "id": "x", "side": 7, "sig": []}, "side"),
    ({"op": "add", "id": "x", "side": True, "sig": []}, "side"),
    ({"op": "add", "id": 7, "side": 0, "sig": []}, "id"),
    ({"op": "bulk", "side": 0, "entities": "abc"}, "entities"),
]


@pytest.mark.parametrize("record, field", _MEASURED_RECORDS)
def test_the_measured_records_are_refused_by_name(session_log, record, field):
    _refused_on_disk(session_log, record, field)


# -- on the wire -----------------------------------------------------------------

@pytest.fixture(scope="module")
def wire():
    """A one-shard daemon and one connection to it: ``send(message)`` returns
    the response envelope."""
    with tempfile.TemporaryDirectory() as directory:
        daemon = MatchingDaemon(Path(directory) / "wal", make_frozen_model(), num_shards=1)
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        assert daemon.ready.wait(60), "daemon did not come up"
        try:
            with socket.create_connection(daemon.address, timeout=60) as connection:
                stream = connection.makefile("rwb")

                def send(message):
                    write_message_to(stream, message)
                    return read_message_from(stream)

                yield send
        finally:
            daemon.request_shutdown()
            thread.join(60)


def _offset(send):
    response = send({"op": "ping", "id": 0})
    assert response["ok"], response
    return response["result"]["offset"]


def _refused_on_the_wire(send, message, path):
    before = _offset(send)
    response = send(message)
    assert response["ok"] is False, response
    assert response["error"]["type"] == ("protocol" if path == "op" else "bad_request")
    assert repr(_refused_field(path)) in response["error"]["message"]
    assert _offset(send) == before  # and the connection still answers


@settings(_SETTINGS, max_examples=25)
@given(message=requests(tuple(op for op in REQUESTS if op != "shutdown")))
def test_a_valid_request_is_served(wire, message):
    response = wire(message)
    assert response["ok"] or response["error"]["type"] not in ("bad_request", "protocol"), response


@_SETTINGS
@given(mutation=mutated_requests())
def test_a_mutated_request_is_refused_by_name_and_changes_nothing(wire, mutation):
    path, message = mutation
    _refused_on_the_wire(wire, message, path)


_PROFILE = {"entity_id": "a", "attributes": {"t": "alpha"}}
_MEASURED_REQUESTS = [
    ({"op": "insert", "args": {"profile": _PROFILE, "side": True}}, "args.side"),
    ({"op": "insert", "args": {"profile": _PROFILE, "side": 1.0}}, "args.side"),
    ({"op": "insert", "args": {"profile": _PROFILE, "side": "x"}}, "args.side"),
    ({"op": "remove", "args": {"entity_id": 7}}, "args.entity_id"),
    ({"op": "remove", "args": {"entity_id": ["a"]}}, "args.entity_id"),
    ({"op": "insert", "args": {"profile": {"entity_id": "a", "attributes": {"t": 5}}}},
     "args.profile.attributes.t"),
    ({"op": "match", "args": {"bogus": 1}}, "args.bogus"),
    ({"op": "insert_bulk", "args": {"profiles": "abc"}}, "args.profiles"),
    ({"op": "ping", "trace": 5}, "trace"),
]


@pytest.mark.parametrize("message, path", _MEASURED_REQUESTS)
def test_the_measured_requests_are_refused_by_name(wire, message, path):
    _refused_on_the_wire(wire, dict(message, id=1), path)
