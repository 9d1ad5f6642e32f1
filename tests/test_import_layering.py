"""The comparison-expansion layer is a leaf, and the layers above import down.

An AST walk over ``src/repro`` (no imports executed) pinning what PR 16
untangled: :mod:`repro.pairs` depends on nothing in ``repro`` above
``datamodel``; ``weights`` no longer reaches back into ``blocking`` from
inside a function to dodge an import cycle, and never imports
``incremental``; and the expansion plan and the registry-key packing each
have exactly one definition.
"""

import ast
import sys
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
LEAF = ROOT / "pairs.py"


def _resolve(path: Path, node: ast.ImportFrom) -> str:
    """The absolute dotted module an ``from ... import`` statement names."""
    if not node.level:
        return node.module or ""
    package = ("repro",) + path.relative_to(ROOT).parts[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ((node.module,) if node.module else ()))


def _imports(path: Path, tree: ast.AST):
    """``(module, statement)`` for every import statement under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.ImportFrom):
            yield _resolve(path, node), node


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported_names(path: Path, tree: ast.Module):
    """``{name: module}`` of a package ``__init__``'s ``_EXPORTS`` table.

    Package ``__init__``s hold no ``from .x import`` block: they resolve their
    public names lazily from that table (:mod:`repro._exports`), which is
    therefore where a guard finds what the package re-exports, and from where.
    """
    package = ".".join(("repro",) + path.relative_to(ROOT).parts[:-1])
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return {
                name: f"{package}.{submodule}"
                for name, submodule in ast.literal_eval(node.value).items()
            }
    return {}


def _imported_names(path: Path):
    """``{name: module}`` over the import statements — and, for a package
    ``__init__``, the export table — of ``path``."""
    tree = _parse(path)
    names = _exported_names(path, tree) if path.name == "__init__.py" else {}
    for module, statement in _imports(path, tree):
        if isinstance(statement, ast.ImportFrom):
            names.update({alias.name: module for alias in statement.names})
        else:
            names[module] = module
    return names


def test_the_leaf_module_imports_only_numpy_stdlib_and_datamodel():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    offenders = [
        module
        for module, _ in _imports(LEAF, _parse(LEAF))
        if module.split(".")[0] not in allowed and not module.startswith("repro.datamodel")
    ]
    assert not offenders, f"repro.pairs must stay a leaf: {offenders}"


def test_weights_has_no_function_level_import_of_blocking():
    offenders = []
    for path in sorted((ROOT / "weights").rglob("*.py")):
        for function in ast.walk(_parse(path)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            offenders += [
                f"{path.relative_to(ROOT)}:{statement.lineno}"
                for module, statement in _imports(path, function)
                if module.startswith("repro.blocking")
            ]
    assert not offenders, f"import down into repro.pairs instead: {offenders}"


def test_weights_never_imports_incremental():
    offenders = [
        f"{path.relative_to(ROOT)}:{statement.lineno}"
        for path in sorted((ROOT / "weights").rglob("*.py"))
        for module, statement in _imports(path, _parse(path))
        if module.startswith("repro.incremental")
    ]
    assert not offenders, offenders


def test_one_definition_each_of_the_plan_and_the_pair_packing():
    defined = {"pair_expansion_plan": [], "pack_pair_keys": [], "expand_pair_chunks": []}
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(str(path.relative_to(ROOT)))
    assert defined == {name: ["pairs.py"] for name in defined}


def test_the_layers_above_take_the_packing_from_the_leaf():
    """``serve`` and ``persistence`` used to reach into ``incremental.index``."""
    for relative in ("serve/router.py", "persistence/snapshot.py"):
        path = ROOT / relative
        names = {
            alias.name: module
            for module, statement in _imports(path, _parse(path))
            if isinstance(statement, ast.ImportFrom)
            for alias in statement.names
        }
        assert names.get("pack_pair_keys") == "repro.pairs", relative
