"""Nothing that reads a WAL directory or serves a request can unpickle.

A pickle is code: loading one from a directory someone else can write is
arbitrary code execution.  Snapshots are array containers
(:mod:`repro.persistence.container`), so no module under
``src/repro/persistence/`` or ``src/repro/serve/`` may import ``pickle`` (or
a module of its family) or name it in code.  An AST walk, like the other
guards: import statements and name / attribute nodes count, docstrings and
comments do not.
"""

import ast

from test_import_layering import ROOT, _parse

#: modules that deserialize code-bearing object graphs
PICKLE_FAMILY = {"pickle", "_pickle", "cPickle", "cloudpickle", "dill", "shelve", "marshal"}


def _pickle_uses(tree: ast.AST):
    """Line numbers under ``tree`` that import or name a pickle-family module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            named = {(node.module or "").split(".")[0]}
        elif isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
            "__import__",
            "import_module",
        ):
            named = {arg.value for arg in node.args if isinstance(arg, ast.Constant)}
        else:
            continue
        if named & PICKLE_FAMILY:
            yield node.lineno


def test_the_guard_sees_code_and_not_prose():
    code = '''
"""Nothing here is unpickled: the pickle module stays out."""
import pickle
from pickle import loads
import importlib
state = pickle.loads(b"")
module = importlib.import_module("marshal")
'''
    assert sorted(set(_pickle_uses(ast.parse(code)))) == [3, 4, 6, 7]
    assert not list(_pickle_uses(ast.parse('"""pickle, unpickled, pickles."""\n# pickle\n')))


def test_no_persistence_or_serve_module_uses_pickle():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for package in ("persistence", "serve")
        for path in sorted((ROOT / package).rglob("*.py"))
        for line in _pickle_uses(_parse(path))
    ]
    assert not offenders, f"a WAL directory must never be unpickled: {offenders}"
