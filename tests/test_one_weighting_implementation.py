"""One implementation per weighting scheme.

Each of the paper's weighting schemes (Section 4) is written once, as the
``compute`` method of its :class:`~repro.weights.WeightingScheme` subclass:
the batched co-occurrence aggregates of ``BlockStatistics.pair_cooccurrence``
combined with per-entity arrays.  Beside it every scheme carried a second,
per-pair method, and ``BlockStatistics`` kept the frozenset helpers only that
loop called.  The per-pair set formulas now live in ``tests/reference.py``
over each ``Block``'s member lists; the helpers are in
``tests/test_no_test_only_surface.py``'s ``GONE``.  These guards keep the
scheme's contract at one abstract method and the vectorized method's old name
out of the tree.
"""

from pathlib import Path

import pytest

from repro.weights import SCHEME_CLASSES, WeightingScheme

REPO = Path(__file__).resolve().parents[1]
#: the directories whose files may not name the second method
SEARCHED = ("src", "tests", "examples", "benchmarks")
#: the vectorized method's name before it became ``compute``
FORMER_NAME = b"compute_sparse"


def test_a_scheme_declares_one_abstract_method():
    assert WeightingScheme.__abstractmethods__ == frozenset({"compute"})


@pytest.mark.parametrize("name", sorted(SCHEME_CLASSES))
def test_every_scheme_defines_compute_and_nothing_else(name):
    scheme = SCHEME_CLASSES[name]
    methods = {
        attribute
        for attribute, value in vars(scheme).items()
        if callable(value) and not attribute.startswith("__")
    }
    assert methods == {"compute"}


def test_no_file_names_the_former_vectorized_method():
    offenders = [
        str(path.relative_to(REPO))
        for directory in SEARCHED
        for path in sorted((REPO / directory).rglob("*"))
        if path.is_file()
        and path != Path(__file__).resolve()
        and "__pycache__" not in path.parts
        and FORMER_NAME in path.read_bytes()
    ]
    assert not offenders, offenders
