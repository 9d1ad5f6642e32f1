"""The declared schema of the log and the wire: one table of fields per kind.

Every log record and every request is checked here, once, against a table
giving each field its JSON type, whether it is required, its default and its
range.  :func:`check` never coerces — a bool is not an int, a number is not a
string, a field the table does not name is refused — and fills in the
defaults, so the code behind a boundary reads checked values only.  The log
checks a record as it writes it and as it reads it back (a refusal on read is
a ``StateFormatError`` naming the record's offset); the daemon answers a
refused request with ``bad_request`` (``protocol`` for an unknown ``op``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Optional, Tuple

#: the ``format`` of the log's ``meta`` record, written and read from here
META_FORMAT = 1


class SchemaError(ValueError):
    """A value its table refuses; ``field`` says where."""

    def __init__(self, kind: str, field: str, problem: str) -> None:
        super().__init__(f"{kind} field {field!r}: {problem}")
        self.field = field


@dataclass(frozen=True)
class Field:
    """One field: its JSON type, whether it is required, its default, its range.

    ``type`` is a key of :data:`JSON_TYPES` or names a table in :data:`TABLES`.
    An ``"array"`` holds ``items[0]`` values, or one value per entry of
    ``items`` when it names several; an ``"object"`` with ``items`` maps its
    keys to ``items[0]`` values.  The range is ``choices`` or ``above`` (an
    exclusive lower bound).
    """

    type: str
    required: bool = True
    default: Any = None
    choices: Tuple[Any, ...] = ()
    above: Optional[float] = None
    items: Tuple["Field", ...] = ()


#: JSON type -> the Python types it is (the log's writer hands arrays as tuples too)
JSON_TYPES = {
    "string": (str,), "int": (int,), "number": (int, float), "bool": (bool,),
    "array": (list, tuple), "object": (dict,),
}

_STRING = Field("string")
_SIGNATURES = Field("array", items=(_STRING,))
_SIDE = Field("int", choices=(0, 1))
_WIRE_SIDE = Field("int", required=False, default=0, choices=(0, 1))
_ENTRY = Field("array", items=(_STRING, _SIGNATURES))  # a bulk entity: [id, signatures]

#: the log: the fields of each record ``op``
_RECORDS = {
    "meta": {
        "format": Field("int", choices=(META_FORMAT,)),
        "kind": Field("string", choices=("index",)),
        "bilateral": Field("bool"),
        "name": _STRING,
    },
    "add": {"id": _STRING, "side": _SIDE, "sig": _SIGNATURES},
    "bulk": {"side": _SIDE, "entities": Field("array", items=(_ENTRY,))},
    "remove": {"id": _STRING, "side": _SIDE},
    "update": {"id": _STRING, "side": _SIDE, "sig": _SIGNATURES},
}

#: the wire: what each request ``op``'s ``args`` may carry
_REQUESTS = {
    "ping": {},
    "insert": {"profile": Field("profile"), "side": _WIRE_SIDE},
    "insert_bulk": {"profiles": Field("array", items=(Field("profile"),)), "side": _WIRE_SIDE},
    "remove": {"entity_id": _STRING, "side": _WIRE_SIDE},
    "update": {"profile": Field("profile"), "side": _WIRE_SIDE},
    "match": {},
    "top_k": {"entity_id": _STRING, "side": _WIRE_SIDE, "k": Field("int", False, 10, above=-1)},
    **{op: {} for op in ("checkpoint", "stats", "metrics", "shutdown")},
}

#: every table, by kind: each log record (``"<op> record"``), the request
#: envelope (``trace`` first, so any later refusal has it checked), the wire
#: profile, and each request op's ``args``
TABLES: Dict[str, Dict[str, Field]] = {
    **{
        f"{op} record": {"op": Field("string", choices=(op,)), **fields}
        for op, fields in _RECORDS.items()
    },
    "request": {
        "trace": Field("string", required=False),
        "id": Field("int", required=False),
        "op": Field("string", choices=tuple(_REQUESTS)),
        "args": Field("object", required=False, default={}),
        "deadline_ms": Field("number", required=False, above=0),
    },
    "profile": {
        "entity_id": _STRING,
        "attributes": Field("object", False, MappingProxyType({}), items=(_STRING,)),
    },
    **_REQUESTS,
}


def check(kind: str, value: Any) -> Dict[str, Any]:
    """``value`` as ``TABLES[kind]`` accepts it, with the defaults filled in.

    Raises :class:`SchemaError` naming the first field refused: a required
    field missing, a value of another JSON type or out of range, or a field
    the table does not name.  Nothing is coerced.
    """
    return _table(kind, TABLES[kind], value, "")


def check_record(record: Any) -> Dict[str, Any]:
    """A log record as the table of its ``op`` accepts it (see :func:`check`)."""
    op = record.get("op") if type(record) is dict else None
    if f"{op} record" not in TABLES:
        raise SchemaError("log record", "op", f"expected a record op, got {op!r:.60}")
    return check(f"{op} record", record)


def _table(kind: str, table: Dict[str, Field], value: Any, path: str) -> Dict[str, Any]:
    if type(value) is not dict:
        raise SchemaError(kind, path, f"expected object, got {value!r:.60}")
    prefix = f"{path}." if path else ""
    checked = {}
    for name, field in table.items():
        if name in value:
            checked[name] = _value(kind, field, value[name], prefix + name)
        elif field.required:
            raise SchemaError(kind, prefix + name, "missing")
        else:
            checked[name] = field.default
    for name in value:
        if name not in table:
            raise SchemaError(kind, prefix + name, "not a field of this table")
    return checked


def _value(kind: str, field: Field, value: Any, path: str) -> Any:
    if field.type in TABLES:
        return _table(kind, TABLES[field.type], value, path)
    if (
        type(value) not in JSON_TYPES[field.type]
        or (type(value) is float and not math.isfinite(value))
        or (field.choices and value not in field.choices)
        or (field.above is not None and value <= field.above)
    ):
        bound = f" > {field.above}" if field.above is not None else ""
        shown = f" in {list(field.choices)}" if field.choices else bound
        raise SchemaError(kind, path, f"expected {field.type}{shown}, got {value!r:.60}")
    if field.type == "array":
        if field.items == (_STRING,) and all(type(entry) is str for entry in value):
            return value
        items = field.items if len(field.items) > 1 else field.items * len(value)
        if len(items) != len(value):
            raise SchemaError(kind, path, f"expected {len(items)} entries, got {len(value)}")
        return [_value(kind, *pair, f"{path}[{at}]") for at, pair in enumerate(zip(items, value))]
    if field.items:
        return {at: _value(kind, *field.items, item, f"{path}.{at}") for at, item in value.items()}
    return value
