"""One declared schema per boundary: the hand checks it replaced stay gone.

What a log record or a request may carry is declared once, in
:mod:`repro.schema`, and checked in one place per boundary: the log's frame
decoder (``persistence/log.py::_decoded_frame``) and the daemon's
``_dispatch``.  Before, ``top_k``'s arguments had their own checker, the
daemon coerced ``args`` values with ``int(...)`` / ``str(...)``, the shard
replica's follower parsed frames with its own CRC / JSON loop, and the
session and the replica each refused an unknown record op.  An AST walk over
``src/repro``, the shape of the other guards, keeps each of them gone.
"""

import ast

from test_import_layering import ROOT, _imports, _parse

LOG = ROOT / "persistence" / "log.py"
#: the frame layout's names, private to the log's decoder
FRAME_NAMES = {"_RECORD_HEADER", "MAX_RECORD_BYTES"}


def _is_args(node: ast.AST) -> bool:
    """``args[...]`` or ``args.get(...)``."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id == "args"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "args"
    )


def _calls(tree: ast.AST, dotted: str):
    """Every call of ``dotted`` (``"zlib.crc32"``) in ``tree``."""
    module, name = dotted.split(".")
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    ]


def _offenders(tree: ast.AST, reads_the_log: bool):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_top_k_arguments":
            found.append((node.lineno, "_top_k_arguments"))
        elif isinstance(node, ast.Name) and node.id in FRAME_NAMES | {"_top_k_arguments"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in FRAME_NAMES:
            found.append((0, node.name))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "str")
            and any(_is_args(argument) for argument in node.args)
        ):
            found.append((node.lineno, f"{node.func.id}(args...)"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "unknown WAL record op" in node.value
        ):
            found.append((node.lineno, "unknown WAL record op"))
    if reads_the_log:
        for dotted in ("zlib.crc32", "json.loads"):
            found += [(node.lineno, dotted) for node in _calls(tree, dotted)]
    return sorted(found)


def _reads_the_log(path, tree) -> bool:
    return any(module == "repro.persistence.log" for module, _ in _imports(path, tree))


def test_the_guard_sees_code():
    code = '''
import json
import zlib
from ..persistence.log import LOG_MAGIC, _RECORD_HEADER

def _top_k_arguments(args): ...

def handle(args, payload):
    side = int(args.get("side", 0))
    entity = str(args["entity_id"])
    kept = int(side)
    if zlib.crc32(payload) != 0:
        raise ValueError(f"unknown WAL record op {side!r}")
    return json.loads(payload)
'''
    assert _offenders(ast.parse(code), reads_the_log=True) == [
        (0, "_RECORD_HEADER"),
        (6, "_top_k_arguments"),
        (9, "int(args...)"),
        (10, "str(args...)"),
        (12, "zlib.crc32"),
        (13, "unknown WAL record op"),
        (14, "json.loads"),
    ]


def test_no_module_keeps_a_hand_check_the_schema_replaced():
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {what}"
        for path in sorted(ROOT.rglob("*.py"))
        if path != LOG
        for tree in [_parse(path)]
        for line, what in _offenders(tree, _reads_the_log(path, tree))
    ]
    assert not offenders, offenders


def test_the_log_decodes_its_frames_in_one_place():
    """Inside ``log.py`` only the frame helpers CRC and decode a frame, and
    ``_decoded_frame`` alone turns its bytes into a record."""
    tree = _parse(LOG)
    owners = {
        dotted: sorted(
            function.name
            for function in tree.body
            if isinstance(function, ast.FunctionDef) and _calls(function, dotted)
        )
        for dotted in ("zlib.crc32", "json.loads")
    }
    assert owners == {"zlib.crc32": ["_frame_end", "encode_record"], "json.loads": ["_decoded_frame"]}
