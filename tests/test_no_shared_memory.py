"""No module of the package uses shared memory or its resource tracker.

A shard worker's read state is a few hundred bytes to tens of kilobytes, and
it rides the worker's pipe reply as one array container
(:mod:`repro.persistence.container`).  ``multiprocessing.shared_memory``
would bring back what that replaced: on Python < 3.13 the first segment a
process creates starts a ``multiprocessing.resource_tracker`` interpreter
beside it, a second process per shard worker.  An AST walk, like the other
guards: import statements, attribute nodes and dynamic imports count,
docstrings and comments do not.
"""

import ast

from test_import_layering import ROOT, _imports, _parse

#: the modules no source file may import or reach
FORBIDDEN = {"multiprocessing.shared_memory", "multiprocessing.resource_tracker"}
#: their names as an attribute off ``multiprocessing``
FORBIDDEN_ATTRIBUTES = {name.rsplit(".", 1)[1] for name in FORBIDDEN}


def _uses(path, tree: ast.AST):
    """Line numbers under ``tree`` that import or reach a :data:`FORBIDDEN` module."""
    for module, statement in _imports(path, tree):
        names = {module}
        if isinstance(statement, ast.ImportFrom):
            names |= {f"{module}.{alias.name}" for alias in statement.names}
        if any(name == forbidden or name.startswith(forbidden + ".") for name in names for forbidden in FORBIDDEN):
            yield statement.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
            "__import__",
            "import_module",
        ):
            if any(isinstance(arg, ast.Constant) and arg.value in FORBIDDEN for arg in node.args):
                yield node.lineno


def test_the_guard_sees_code_and_not_prose():
    code = '''
"""Ships used to cross through multiprocessing.shared_memory."""
import multiprocessing.shared_memory
from multiprocessing import resource_tracker, Pipe
from multiprocessing.shared_memory import SharedMemory
import multiprocessing
segment = multiprocessing.shared_memory.SharedMemory(create=True, size=8)
import importlib
tracker = importlib.import_module("multiprocessing.resource_tracker")
from multiprocessing import Pipe
'''
    path = ROOT / "serve" / "example.py"
    assert sorted(set(_uses(path, ast.parse(code)))) == [3, 4, 5, 7, 9]
    prose = '"""multiprocessing.shared_memory, resource_tracker."""\n# shared_memory\n'
    assert not list(_uses(path, ast.parse(prose)))


def test_no_module_uses_shared_memory_or_its_resource_tracker():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(ROOT.rglob("*.py"))
        for line in _uses(path, _parse(path))
    ]
    assert not offenders, f"ships ride the worker pipe as containers: {offenders}"
