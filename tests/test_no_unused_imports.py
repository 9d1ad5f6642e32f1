"""No module under ``src/repro`` imports a name it does not use.

An unused import costs a line and a lookup at import time, and it hides which
module really depends on which.  No linter runs here, so an AST walk — the
shape of the other guards — is the check.  A module-level import counts as
used when

* the module's code loads the name (a docstring that mentions it does not
  count; a quoted annotation does);
* the module's ``__all__`` or its package's ``_EXPORTS`` table names it; or
* another module — under ``src/``, ``tests/``, ``benchmarks/`` or
  ``examples/`` — imports the name from this one.
"""

import ast
from pathlib import Path

from test_import_layering import ROOT, _parse, _resolve

REPO = ROOT.parent.parent
#: the trees whose ``from repro.x import name`` statements re-export ``name``
IMPORTERS = ("src", "tests", "benchmarks", "examples")


def _module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _docstrings(tree: ast.Module):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.Module):
    """Every name the code of ``tree`` loads, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    docstrings = _docstrings(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    names |= {
                        inner.id
                        for inner in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(inner, ast.Name)
                    }
    return names


def _exported(tree: ast.Module):
    """The names ``__all__`` or ``_EXPORTS`` spell as string literals."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
            "__all__",
            "_EXPORTS",
        ):
            names |= {
                constant.value
                for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
            }
    return names


def _imported_from_elsewhere():
    """``(module, name)`` of every ``from module import name`` in the repo."""
    found = set()
    for tree_root in IMPORTERS:
        for path in sorted((REPO / tree_root).rglob("*.py")):
            tree = _parse(path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level and path.is_relative_to(ROOT):
                    module = _resolve(path, node)
                else:
                    module = node.module or ""
                found |= {(module, alias.name) for alias in node.names}
    return found


def _unused(path: Path, tree: ast.Module, imported_elsewhere):
    used = _loaded(tree) | _exported(tree)
    module = _module_name(path) if path.is_relative_to(ROOT) else ""
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound not in used and (module, bound) not in imported_elsewhere:
                yield statement.lineno, bound


def test_the_guard_sees_code():
    code = '''
"""Mentions Optional and np in prose."""
import json
import numpy as np
from typing import Dict, List, Optional
from .kept import reexported

__all__ = ["exported_name"]
from .elsewhere import exported_name

def f(x: "List[int]") -> Dict[str, int]:
    return json.loads(x)
'''
    tree = ast.parse(code)
    assert list(_unused(Path("<guard>"), tree, set())) == [
        (4, "np"),
        (5, "Optional"),
        (6, "reexported"),
    ]


def test_no_module_imports_a_name_it_does_not_use():
    imported_elsewhere = _imported_from_elsewhere()
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in _unused(path, _parse(path), imported_elsewhere)
    ]
    assert not offenders, f"unused imports: {offenders}"
