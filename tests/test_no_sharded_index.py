"""The signature-sharded index class is gone, and its snapshot branch with it.

Sharding lives in the serving fleet: K ``ShardReplica`` processes follow the
authority's log, each with its signatures filtered by
``shard_of_signature``, and a ``MergedIndexView`` reads them as one index.
The class that routed mutations to K in-process shards — and the snapshot,
WAL and recovery branch that wrote and rebuilt it — had no runtime caller.
An AST walk over ``src/repro``, the shape of the other guards: no module
names the class or the two helpers of its snapshot branch, and no dict
literal writes its ``"kind": "sharded"`` topology; the package exports no
such name either.
"""

import ast

import pytest

from test_derived_answer_guards import _spelled_names
from test_import_layering import ROOT, _parse

#: the class and the helpers that existed only for it
GONE = {"ShardedMutableBlockIndex", "_apply_bulk_split", "_merged_compacted"}


def _sharded_kind_literals(tree: ast.AST):
    """Line numbers of dict literals holding ``"kind": "sharded"``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "kind"
                    and isinstance(value, ast.Constant)
                    and value.value == "sharded"
                ):
                    yield node.lineno


def _offenders(tree: ast.AST):
    named = [(line, name) for name, line in _spelled_names(tree) if name in GONE]
    return named + [(line, "kind: sharded") for line in _sharded_kind_literals(tree)]


def test_the_guard_sees_code():
    code = '''
class ShardedMutableBlockIndex: ...
def dump(index):
    index._apply_bulk_split([], 0)
    return {"op": "meta", "kind": "sharded"}
'''
    assert sorted(_offenders(ast.parse(code))) == [
        (2, "ShardedMutableBlockIndex"),
        (4, "_apply_bulk_split"),
        (5, "kind: sharded"),
    ]


def test_no_module_names_the_sharded_index_or_writes_its_topology():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in _offenders(_parse(path))
    ]
    assert not offenders, offenders


def test_the_packages_export_no_sharded_index():
    with pytest.raises(ImportError):
        from repro import ShardedMutableBlockIndex  # noqa: F401
    with pytest.raises(ImportError):
        from repro.incremental import ShardedMutableBlockIndex  # noqa: F401,F811
