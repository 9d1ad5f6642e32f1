"""One index state, one read surface: the tower must not grow back.

The read state of a streaming index — three arrays and a few scalars — is
declared once, in :mod:`repro.incremental.state`, and read through one type.
These are AST walks over ``src/repro`` (no imports executed, except for the
importability check at the end) that fail if a layer above starts reaching
into the index's private fields again, spells the wire schema out a second
time, or builds someone else's class around its constructor.
"""

import ast
import importlib

import pytest

from repro.incremental import IndexState, MutableBlockIndex
from repro.incremental.state import APPENDED

from test_import_layering import ROOT, _imports, _parse

WIRE_NAMES = {name for name, _, _, _ in APPENDED}
FIELDS = {field for _, field, _, _ in APPENDED}
#: the arrays only a writer holds (the insert-time read sums over them)
WRITER_FIELDS = {
    "_block_sizes",
    "_block_cardinalities",
    "_inverse_block_cardinalities",
    "_inverse_block_sizes",
    "_degrees",
}
SCHEMA = "incremental/state.py"


def _modules(*packages):
    for package in packages:
        yield from sorted((ROOT / package).rglob("*.py"))


def test_the_schema_is_three_arrays():
    assert len(APPENDED) == len(WIRE_NAMES) == len(FIELDS) == 3
    assert all(field.startswith("_") for field in FIELDS)
    assert set(MutableBlockIndex().export_state()["arrays"]) == WIRE_NAMES


#: the per-entity aggregates and the assignment total that used to be
#: maintained under every mutation, shipped and snapshotted
DERIVED = (
    "_blocks_per_entity",
    "_entity_cardinality",
    "_entity_inv_cardinality",
    "_entity_inv_size",
    "total_block_assignments",
)


def test_derived_statistics_are_not_maintained_anywhere():
    """Nothing a reader can derive from the rows it reads is kept: no module
    of the streaming package names the old fields, and neither a writer nor a
    receiver holds them or a ``block_totals`` of its own."""
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in _modules("incremental")
        for name in DERIVED
        if name in path.read_text()
    ]
    assert not offenders, offenders
    for state in (MutableBlockIndex(bilateral=True), IndexState(bilateral=True)):
        assert not [name for name in DERIVED + ("block_totals",) if hasattr(state, name)]


def test_layers_above_import_no_private_name_from_incremental():
    offenders = [
        f"{path.relative_to(ROOT)}:{statement.lineno}: {alias.name}"
        for path in _modules("serve", "persistence")
        for module, statement in _imports(path, _parse(path))
        if isinstance(statement, ast.ImportFrom) and module.startswith("repro.incremental")
        for alias in statement.names
        if alias.name.startswith("_")
    ]
    assert not offenders, offenders


def test_layers_above_read_no_array_field_off_an_index():
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}: .{node.attr}"
        for path in _modules("serve", "persistence")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr in FIELDS | WRITER_FIELDS
    ]
    assert not offenders, f"go through the IndexState read surface: {offenders}"


def test_each_wire_name_is_spelled_out_in_one_module():
    spelled = {name: set() for name in WIRE_NAMES}
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Constant) and node.value in spelled:
                spelled[node.value].add(str(path.relative_to(ROOT)))
    assert spelled == {name: {SCHEMA} for name in WIRE_NAMES}


class _ConstructorBypasses(ast.NodeVisitor):
    """The enclosing function of every ``<something>.__new__(...)`` call."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            self.found.append(self.scope[-1] if self.scope else "<module>")
        self.generic_visit(node)


def test_no_constructor_bypass_outside_session_recovery():
    """``cls.__new__(cls)`` skips ``__init__``: every field is then assigned by
    hand, somewhere else, and drifts.  Only the recovery path may."""
    calls = []
    for path in sorted(ROOT.rglob("*.py")):
        visitor = _ConstructorBypasses()
        visitor.visit(_parse(path))
        calls += [(str(path.relative_to(ROOT)), name) for name in visitor.found]
    assert calls == [("incremental/session.py", "_from_parts")]


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.serve.router", "ShardStateStub"),
        ("repro.serve.router", "merged_stub_view"),
        ("repro.serve.router", "_grown"),
        ("repro.serve", "render_stats"),
        ("repro.incremental.index", "IncrementalStatistics"),
        ("repro.incremental.index", "_Growable"),
        ("repro.incremental.sharded", "ShardedStatistics"),
        ("repro.incremental.state", "FULL_ARRAYS"),
        ("repro.incremental.state", "ENTITY_AGGREGATES"),
        ("repro.incremental.state", "BLOCK_AGGREGATES"),
        ("repro.incremental.state", "ADOPTED_SCALARS"),
        ("repro.incremental", "IncrementalStatistics"),
        ("repro.incremental", "ShardedStatistics"),
    ],
)
def test_removed_names_are_gone_not_aliased(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in getattr(importlib.import_module(module), "__all__", ())


def test_the_replacements_are_exported():
    import repro.incremental

    for name in ("IndexState", "IndexStatistics", "MergedIndexView"):
        assert name in repro.incremental.__all__ and hasattr(repro.incremental, name)
