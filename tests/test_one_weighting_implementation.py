"""One implementation per weighting scheme.

Each of the paper's weighting schemes (Section 4) is written once, as the
``compute`` method of its :class:`~repro.weights.WeightingScheme` subclass:
the batched co-occurrence aggregates of ``BlockStatistics.pair_cooccurrence``
combined with per-entity arrays.  The per-pair set formulas live in
``tests/reference.py`` over each ``Block``'s member lists; the former
per-pair helpers and the vectorized method's old name stay gone by the rows
of ``tests/test_guards.py``.  These checks keep the scheme's contract at one
abstract method.
"""

import pytest

from repro.weights import SCHEME_CLASSES, WeightingScheme

pytestmark = pytest.mark.equivalence


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
