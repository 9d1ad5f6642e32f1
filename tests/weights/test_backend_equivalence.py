"""Reference-equivalence property tests (the paper's set formulas vs ``compute``).

The reference is ``tests/reference.py``: the set formulas of every weighting
scheme evaluated pair by pair over each ``Block``'s member lists
(``reference_feature_matrix``, ``reference_lcp``).  The vectorized
``WeightingScheme.compute`` the library runs must reproduce them bit-for-bit
up to float summation order.  Hypothesis generates randomized unilateral and
bilateral block collections — including empty blocks, singleton entities, and
entities absent from every block — and every registered scheme is asserted
``np.allclose``-identical, both per scheme and through the full
:class:`FeatureVectorGenerator` stack.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra import numpy as hnp

from repro.core import FeatureVectorGenerator
from repro.datamodel import CandidateSet, EntityIndexSpace
from repro.weights import PAPER_FEATURES, SCHEME_CLASSES, schemes, sparse

from reference import (
    Block,
    BlockCollection,
    block_statistics,
    candidate_set,
    pair_tuples,
    reference_block_sets,
    reference_candidates,
    reference_feature_matrix,
    reference_lcp,
    reference_masked_ratio,
)

pytestmark = pytest.mark.equivalence

ALL_SCHEMES = tuple(SCHEME_CLASSES)

#: absolute/relative tolerances: the two implementations sum the same terms in a
#: different order, so only accumulation noise is allowed.
TOLERANCES = dict(rtol=1e-9, atol=1e-12)


# -- strategies -----------------------------------------------------------------------

@st.composite
def unilateral_collections(draw):
    """Random Dirty ER block collections plus a candidate set.

    The node space is drawn larger than the ids actually used, so some
    entities are absent from every block; blocks may be empty or singletons
    (spawning no comparison), which the reference tolerates and the
    vectorized kernels must too.
    """
    total = draw(st.integers(min_value=2, max_value=14))
    space = EntityIndexSpace(total, 0)
    n_blocks = draw(st.integers(min_value=0, max_value=8))
    blocks = []
    for index in range(n_blocks):
        members = draw(
            st.lists(st.integers(0, total - 1), min_size=0, max_size=total, unique=True)
        )
        blocks.append(Block(f"b{index}", sorted(members)))
    collection = BlockCollection(blocks, space)
    candidates = _draw_candidates(draw, collection)
    return collection, candidates


@st.composite
def bilateral_collections(draw):
    """Random Clean-Clean ER block collections plus a candidate set."""
    size_first = draw(st.integers(min_value=1, max_value=7))
    size_second = draw(st.integers(min_value=1, max_value=7))
    space = EntityIndexSpace(size_first, size_second)
    n_blocks = draw(st.integers(min_value=0, max_value=8))
    blocks = []
    for index in range(n_blocks):
        first = draw(
            st.lists(
                st.integers(0, size_first - 1),
                min_size=0,
                max_size=size_first,
                unique=True,
            )
        )
        second = draw(
            st.lists(
                st.integers(size_first, size_first + size_second - 1),
                min_size=0,
                max_size=size_second,
                unique=True,
            )
        )
        blocks.append(Block(f"b{index}", sorted(first), sorted(second)))
    collection = BlockCollection(blocks, space)
    candidates = _draw_candidates(draw, collection)
    return collection, candidates


def _draw_candidates(draw, collection: BlockCollection) -> CandidateSet:
    """The collection's distinct pairs plus random extra (non-co-occurring) pairs."""
    pairs = set(pair_tuples(reference_candidates(collection)))
    total = collection.index_space.total
    if total >= 2:
        extra = draw(
            st.lists(
                st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)),
                min_size=0,
                max_size=6,
            )
        )
        for i, j in extra:
            if i != j:
                pairs.add((i, j) if i < j else (j, i))
    return candidate_set(pairs, collection.index_space)


# -- per-scheme equivalence -----------------------------------------------------------

def _assert_scheme_matches_reference(scheme_name, blocks, candidates):
    stats = block_statistics(blocks)
    scheme = SCHEME_CLASSES[scheme_name]()
    loop = reference_feature_matrix((scheme_name,), candidates, blocks).values
    sparse = scheme.compute(candidates, stats)
    assert loop.shape == sparse.shape == (len(candidates), scheme.width)
    np.testing.assert_allclose(sparse, loop, **TOLERANCES)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
@given(data=unilateral_collections())
@settings(max_examples=40, deadline=None)
def test_unilateral_equivalence(scheme_name, data):
    _assert_scheme_matches_reference(scheme_name, *data)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
@given(data=bilateral_collections())
@settings(max_examples=40, deadline=None)
def test_bilateral_equivalence(scheme_name, data):
    _assert_scheme_matches_reference(scheme_name, *data)


# -- full-stack equivalence -----------------------------------------------------------

@given(data=bilateral_collections())
@settings(max_examples=25, deadline=None)
def test_full_feature_matrix_equivalence(data):
    """The whole generator stack reproduces the reference matrix."""
    blocks, candidates = data
    stats = block_statistics(blocks)
    feature_set = ("CBS",) + PAPER_FEATURES
    loop = reference_feature_matrix(feature_set, candidates, blocks)
    sparse = FeatureVectorGenerator(feature_set).generate(candidates, stats)
    assert loop.columns == sparse.columns
    np.testing.assert_allclose(sparse.values, loop.values, **TOLERANCES)


@given(data=unilateral_collections())
@settings(max_examples=25, deadline=None)
def test_dirty_feature_matrix_equivalence(data):
    """On a dirty collection too, statistics built from the blocks alone."""
    blocks, candidates = data
    loop = reference_feature_matrix(PAPER_FEATURES, candidates, blocks)
    sparse = FeatureVectorGenerator(PAPER_FEATURES).generate(candidates, block_statistics(blocks))
    np.testing.assert_allclose(sparse.values, loop.values, **TOLERANCES)


@given(data=st.one_of(unilateral_collections(), bilateral_collections()))
@settings(max_examples=60, deadline=None)
def test_entity_aggregates_and_lcp_match_the_loop_oracle(data):
    """The array-native statistics equal the per-entity sums over the blocks'
    member lists, and LCP the walk over every block of every entity.

    The two inverse sums add the same terms in ascending block id instead of
    set order, so they may differ in the last digits; the rest is exact.
    """
    blocks, _ = data
    stats = block_statistics(blocks)
    sets = reference_block_sets(blocks)
    assert stats.blocks_per_entity.tolist() == [len(ids) for ids in sets.of_node]
    assert stats.entity_cardinality.tolist() == [
        sets.entity_cardinality(ids) for ids in sets.of_node
    ]
    np.testing.assert_allclose(
        stats.entity_inv_cardinality,
        [sets.inverse_cardinality(ids) for ids in sets.of_node],
        rtol=1e-12,
        atol=0,
    )
    np.testing.assert_allclose(
        stats.entity_inv_size,
        [sets.inverse_size(ids) for ids in sets.of_node],
        rtol=1e-12,
        atol=0,
    )
    assert np.array_equal(stats.local_candidate_counts_sparse(), reference_lcp(blocks))


# -- deterministic edge cases ---------------------------------------------------------

@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_empty_collection_equivalence(scheme_name):
    """No blocks, no candidates: the kernel and the reference return empty matrices."""
    blocks = BlockCollection([], EntityIndexSpace(4, 0))
    _assert_scheme_matches_reference(
        scheme_name, blocks, candidate_set([], blocks.index_space)
    )


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_absent_entities_equivalence(scheme_name):
    """Pairs whose entities appear in no block score zero on both sides."""
    space = EntityIndexSpace(8, 0)
    blocks = BlockCollection(
        [Block("a", [0, 1, 2]), Block("empty", []), Block("singleton", [5])], space
    )
    candidates = candidate_set([(0, 1), (3, 4), (5, 6), (6, 7)], space)
    _assert_scheme_matches_reference(scheme_name, blocks, candidates)


def test_generator_rejects_unknown_backend():
    """Every ``backend=`` is unknown now: the keyword itself is gone."""
    with pytest.raises(TypeError, match="backend"):
        FeatureVectorGenerator(("JS",), backend="fancy")


# -- the feature-major arithmetic against the forms it replaced, bit for bit ----------

@pytest.mark.parametrize("n_pairs, n_entities", [(3, 500), (500, 40)])
def test_entity_log_ratios_equal_the_gathered_form_on_both_sides_of_the_size_rule(
    monkeypatch, n_pairs, n_entities
):
    """Per entity then gathered, or per endpoint: the same bits, and never
    more logarithms than ``min(2 * n_pairs, n_entities)``."""
    rng = np.random.default_rng(n_pairs)
    per_entity = rng.integers(0, 60, size=n_entities).astype(np.float64)
    per_entity[:5] = (0.0, 1.0, 40.0, 41.0, 1e9)  # absent, ratio > 1, == 1, < 1
    left = rng.integers(0, n_entities, size=n_pairs)
    right = rng.integers(0, n_entities, size=n_pairs)
    left[:3], right[:3] = (0, 2, 4), (1, 3, 0)
    expected = [sparse.safe_log_ratio_array(40.0, per_entity[nodes]) for nodes in (left, right)]

    taken = []
    original = sparse.safe_log_ratio_array

    def counting(total, values):
        taken.append(np.asarray(values).size)
        return original(total, values)

    monkeypatch.setattr(sparse, "safe_log_ratio_array", counting)
    for got, want in zip(sparse.entity_log_ratios(40.0, per_entity, left, right), expected):
        assert np.array_equal(got, want)
    assert sum(taken) == min(2 * n_pairs, n_entities)
    assert not np.any(sparse.entity_log_ratios(0.0, per_entity, left, right))


_RATIO_TERMS = st.one_of(st.sampled_from([0.0, -1.0, 1.0, 3.0]), st.floats(-4.0, 40.0, width=64))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_masked_divide_equals_the_gather_and_scatter_form(data):
    """JS / WJS / NRS: one ``np.divide(..., where=)`` against gather, divide, scatter."""
    n_pairs = data.draw(st.integers(0, 30))
    per_entity = data.draw(hnp.arrays(np.float64, 6, elements=_RATIO_TERMS))
    shared, common = data.draw(hnp.arrays(np.float64, (2, n_pairs), elements=_RATIO_TERMS))
    left, right = data.draw(hnp.arrays(np.int64, (2, n_pairs), elements=st.integers(0, 5)))
    ends = SimpleNamespace(left=left, right=right)
    assert np.array_equal(
        schemes._jaccard_column(shared, per_entity, ends, common),
        reference_masked_ratio(shared, per_entity[left] + per_entity[right] - shared, common),
    )
