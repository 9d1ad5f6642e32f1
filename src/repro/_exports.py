"""Lazy package exports: one ``name -> submodule`` table per package (PEP 562).

A package ``__init__`` under :mod:`repro` holds no ``from .x import ...``
block.  It declares its public names once, as a table mapping each name to
the submodule that defines it, and hands the table to :func:`lazy_exports`::

    _EXPORTS = {"prepare_blocks": "candidate_extraction", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from repro.blocking import prepare_blocks``, ``repro.blocking.prepare_blocks``
and ``from repro.blocking import *`` then import ``candidate_extraction`` — and
only what it imports — on first access, so a process pays for the modules it uses: ``repro serve
--recover`` never loads the experiment suite, ``repro --help`` never loads the
serving stack.  A submodule is reachable as an attribute the same way
(``import repro; repro.blocking``), as it was when the ``__init__`` imported
it eagerly.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the submodule of ``package`` (a
    dotted path relative to it) that defines the name.  A resolved name is
    stored on the package, so the hook runs once per name.
    """

    def __getattr__(name: str) -> object:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in exports:
            value = getattr(import_module(f"{package}.{exports[name]}"), name)
        elif name.startswith("_"):
            raise missing
        else:
            qualified = f"{package}.{name}"
            try:
                value = import_module(qualified)
            except ModuleNotFoundError as error:
                if error.name != qualified:
                    raise
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
