"""The repository's Python source, parsed once per test session.

Every static check — the guard table of ``tests/test_guards.py``, the unused
import analysis, the export-table and layout checks — reads its trees through
:func:`parse`, which keeps each file's tree for the rest of the session, so
``src/repro`` is parsed once however many checks walk it.  Nothing here
imports the package: the trees are read, never executed.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parents[1]
ROOT = REPO / "src" / "repro"


@functools.lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``, shared by every caller: do not mutate it."""
    return ast.parse(path.read_text(), filename=str(path))


def python_files(directory: Path) -> List[Path]:
    """The ``.py`` files under ``directory`` (or ``[directory]`` for a file)."""
    if directory.is_file():
        return [directory]
    return sorted(path for path in directory.rglob("*.py") if "__pycache__" not in path.parts)


def module_name(path: Path) -> str:
    """``repro.x.y`` for a module under ``src/repro`` (``""`` elsewhere)."""
    if not path.is_relative_to(ROOT):
        return ""
    parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def resolve(path: Path, node: ast.ImportFrom) -> str:
    """The absolute dotted module a ``from ... import`` statement names."""
    if not node.level:
        return node.module or ""
    package = ("repro",) + path.relative_to(ROOT).parts[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def exported_names(path: Path, tree: ast.Module) -> Dict[str, str]:
    """``{name: module}`` of a package ``__init__``'s ``_EXPORTS`` table.

    Package ``__init__``s hold no ``from .x import`` block: they resolve their
    public names lazily from that table (:mod:`repro._exports`), which is
    therefore where a check finds what the package re-exports, and from where.
    """
    package = ".".join(("repro",) + path.relative_to(ROOT).parts[:-1])
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return {
                name: f"{package}.{submodule}"
                for name, submodule in ast.literal_eval(node.value).items()
            }
    return {}
