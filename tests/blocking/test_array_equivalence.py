"""Equivalence tests: ``prepare_blocks`` vs the object-chain reference.

The array engine (:mod:`repro.blocking.arrayops`) must be block-for-block and
pair-for-pair identical to the object-based reference chain
(``reference_prepare_blocks``) — raw, purged
and filtered collections, candidate pairs, and the handed-over CSR incidence
structure — across unilateral and bilateral inputs, with and without
purging/filtering, and under stop-word and minimum-token-length variants,
for every blocking method, over texts the tokeniser's fold actually changes
(mixed case, punctuation, accents, repeated tokens).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    QGramsBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
    TokenBlocking,
    prepare_blocks,
)
from repro.blocking.arrayops import _dictionary_encode, encode_signatures
from repro.datamodel import EntityCollection, make_profile
from repro.datasets import load_dirty_dataset
from repro.weights.sparse import build_entity_block_csr

from reference import pair_tuples, reference_encode_signatures, reference_prepare_blocks

pytestmark = pytest.mark.equivalence

#: a small vocabulary (stop-words included) so random texts collide heavily
WORDS = (
    "apple", "samsung", "phone", "smartphone", "mate", "fold", "x",
    "s20", "20", "the", "and", "a", "pro", "mini",
)


_ACCENTS = str.maketrans("aeioun", "áéïöüñ")

#: renderings of a word that all fold back to it (or, for the last two, to it
#: and a neighbour: the separator is part of the rendering)
RENDERINGS = (
    str,
    str.upper,
    str.title,
    lambda word: word.translate(_ACCENTS),
    lambda word: f"({word}),",
    lambda word: f"{word}-{word}",
    lambda word: f"{word}/\t",
)


def make_collection(token_rows, name):
    profiles = [
        make_profile(f"{name}-{position}", text=" ".join(row))
        for position, row in enumerate(token_rows)
    ]
    return EntityCollection(profiles, name=name)


@st.composite
def collections(draw, name, min_entities=1, max_entities=8):
    n_entities = draw(st.integers(min_entities, max_entities))
    rendered_words = st.builds(
        lambda word, render: render(word), st.sampled_from(WORDS), st.sampled_from(RENDERINGS)
    )
    rows = [
        draw(st.lists(rendered_words, min_size=0, max_size=6))
        for _ in range(n_entities)
    ]
    return make_collection(rows, name)


#: every blocking method, with the parameters that change its signatures
blocking_methods = st.one_of(
    st.builds(QGramsBlocking, q=st.sampled_from((2, 3))),
    st.builds(
        SuffixArraysBlocking,
        min_suffix_length=st.sampled_from((2, 3)),
        max_block_size=st.sampled_from((None, 2, 53)),
    ),
    st.builds(StandardBlocking, st.just(["text"]), tokenize=st.booleans()),
)


@st.composite
def preparation_options(draw):
    return dict(
        purging_fraction=draw(st.sampled_from((0.3, 0.5, 1.0))),
        filtering_ratio=draw(st.sampled_from((0.3, 0.5, 0.8, 1.0))),
        apply_purging=draw(st.booleans()),
        apply_filtering=draw(st.booleans()),
    )


@st.composite
def token_blocking_variants(draw):
    return TokenBlocking(
        min_token_length=draw(st.sampled_from((1, 2))),
        remove_stop_words=draw(st.booleans()),
    )


def assert_collections_identical(loop_blocks, array_blocks):
    assert array_blocks.name == loop_blocks.name
    assert len(array_blocks) == len(loop_blocks)
    for loop_block, array_block in zip(loop_blocks, array_blocks):
        assert array_block.key == loop_block.key
        assert array_block.entities_first == loop_block.entities_first
        assert array_block.entities_second == loop_block.entities_second


def assert_equivalent(first, second, blocking=None, **options):
    loop = reference_prepare_blocks(first, second, blocking=blocking, **options)
    array = prepare_blocks(first, second, blocking=blocking, **options)
    assert_collections_identical(loop.raw_blocks, array.raw_blocks)
    assert_collections_identical(loop.purged_blocks, array.purged_blocks)
    assert_collections_identical(loop.blocks, array.blocks)
    assert pair_tuples(loop.candidates) == pair_tuples(array.candidates)
    assert loop.candidates.index_space == array.candidates.index_space
    reference_csr = build_entity_block_csr(loop.blocks)
    assert array.csr is not None
    assert np.array_equal(array.csr.indptr, reference_csr.indptr)
    assert np.array_equal(array.csr.indices, reference_csr.indices)
    assert array.csr.num_blocks == reference_csr.num_blocks
    return loop, array


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        first=collections(name="shop-1"),
        second=collections(name="shop-2"),
        options=preparation_options(),
        blocking=token_blocking_variants(),
    )
    def test_bilateral(self, first, second, options, blocking):
        assert_equivalent(first, second, blocking=blocking, **options)

    @settings(max_examples=60, deadline=None)
    @given(
        collection=collections(name="dirty", max_entities=10),
        options=preparation_options(),
        blocking=token_blocking_variants(),
    )
    def test_unilateral(self, collection, options, blocking):
        assert_equivalent(collection, None, blocking=blocking, **options)

    @settings(max_examples=25, deadline=None)
    @given(
        first=collections(name="shop-1"),
        second=collections(name="shop-2"),
    )
    def test_bilateral_qgrams_method(self, first, second):
        """The generic signature_lists path (non-token blocking methods)."""
        assert_equivalent(first, second, blocking=QGramsBlocking(q=3))

    @settings(max_examples=60, deadline=None)
    @given(
        first=collections(name="shop-1"),
        second=collections(name="shop-2"),
        options=preparation_options(),
        blocking=blocking_methods,
    )
    def test_bilateral_every_method(self, first, second, options, blocking):
        assert_equivalent(first, second, blocking=blocking, **options)

    @settings(max_examples=60, deadline=None)
    @given(
        collection=collections(name="dirty", max_entities=10),
        options=preparation_options(),
        blocking=blocking_methods,
    )
    def test_unilateral_every_method(self, collection, options, blocking):
        assert_equivalent(collection, None, blocking=blocking, **options)


class TestEncodeKernel:
    """``encode_signatures`` against the per-token ``setdefault`` loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        first=collections(name="shop-1"),
        second=st.one_of(st.none(), collections(name="shop-2")),
        blocking=st.one_of(token_blocking_variants(), blocking_methods),
    )
    def test_same_stream_as_the_loop(self, first, second, blocking):
        profiles = list(first) + list(second or ())
        expected = reference_encode_signatures(blocking.signature_lists(profiles))
        ours_all = encode_signatures(blocking.signature_lists(profiles))
        for ours, theirs in zip(ours_all, expected):
            assert_same_array(ours, theirs)
        codes, nodes, vocabulary = _dictionary_encode(blocking, first, second)
        assert_same_array(codes, expected[0])
        assert_same_array(nodes, np.repeat(np.arange(len(profiles)), expected[1]))
        assert vocabulary == expected[2]

    @pytest.mark.parametrize(
        "signature_lists",
        [[], [[]], [[], [], []], [["x", "x", "x"]], [[], ["x"], [], ["x", "x"]]],
        ids=["none", "one-empty", "all-empty", "one-repeated", "mixed"],
    )
    def test_degenerate_inputs_are_well_typed(self, signature_lists):
        codes, lengths, vocabulary = encode_signatures(signature_lists)
        expected = reference_encode_signatures(signature_lists)
        for ours, theirs in zip((codes, lengths, vocabulary), expected):
            assert_same_array(ours, theirs)
        assert lengths.tolist() == [len(signatures) for signatures in signature_lists]
        assert codes.tolist() == [0] * int(lengths.sum())
        assert vocabulary == (["x"] if codes.size else [])


def assert_same_array(ours, theirs):
    if isinstance(theirs, list):
        assert ours == theirs
        return
    assert ours.dtype == theirs.dtype == np.int64 and ours.ndim == 1
    assert np.array_equal(ours, theirs)


class TestEdgeCases:
    def test_suffix_arrays_cut_off_reaches_the_array_engine(self):
        """``max_block_size`` was only applied by the object chain's override."""
        collection = make_collection(
            [[f"widget{position % 3}", "gadget"] for position in range(8)], "dirty"
        )
        options = dict(
            blocking=SuffixArraysBlocking(3, 2), apply_purging=False, apply_filtering=False
        )
        loop, _ = assert_equivalent(collection, None, **options)
        assert len(loop.blocks) == 5 and max(loop.blocks.block_sizes()) == 2
        uncut = prepare_blocks(
            collection, None, **{**options, "blocking": SuffixArraysBlocking(3, None)}
        )
        assert len(uncut.blocks) == 19 and max(uncut.blocks.block_sizes()) == 8

    def test_empty_collections(self):
        empty = make_collection([], "empty")
        other = make_collection([["apple"]], "other")
        loop, array = assert_equivalent(empty, None)
        assert len(array.candidates) == 0
        assert_equivalent(empty, other)
        assert_equivalent(other, empty)

    def test_no_shared_tokens(self):
        first = make_collection([["apple"], ["samsung"]], "shop-1")
        second = make_collection([["nokia"], ["huawei"]], "shop-2")
        loop, array = assert_equivalent(first, second)
        assert len(array.blocks) == 0
        assert len(array.candidates) == 0

    def test_all_profiles_identical(self):
        rows = [["apple", "phone"]] * 5
        assert_equivalent(make_collection(rows, "dirty"), None)
        assert_equivalent(
            make_collection(rows, "dirty"), None, purging_fraction=1.0
        )

    def test_paper_example(self, paper_example_profiles):
        first, second, _ = paper_example_profiles
        assert_equivalent(first, second)

    def test_dblpacm_identical(self, dblpacm_dataset):
        loop, array = assert_equivalent(dblpacm_dataset.first, dblpacm_dataset.second)
        assert len(array.candidates) > 0

    def test_d10k_identical(self):
        """The Dirty ER scalability series' smallest dataset, as the
        block-preparation runtime bench gated it: every stage and every
        candidate pair equal to the object chain's."""
        dataset = load_dirty_dataset("D10K", seed=0, scale=0.01)
        loop, array = assert_equivalent(dataset.collection, None)
        assert len(array.candidates) > 0

    def test_degenerate_single_side_blocks_after_filtering(self):
        """Filtering can strand clean-clean blocks with one populated side.

        ``Block.is_bilateral`` then flips and the block spawns intra-source
        pairs; the array path must reproduce that loop behaviour exactly.
        """
        first = make_collection(
            [["apple", "x"], ["apple", "x"], ["apple"], ["apple"]], "shop-1"
        )
        second = make_collection([["apple", "x", "s20", "pro"]], "shop-2")
        loop, array = assert_equivalent(
            first, second, filtering_ratio=0.3, apply_purging=False
        )
        stranded = [block for block in loop.blocks if not block.is_bilateral]
        assert stranded, "the construction must strand a single-side block"
        # the stranded block spawns an intra-source pair both implementations keep
        assert (2, 3) in pair_tuples(loop.candidates)


class TestBackendSwitch:
    """There is no switch: ``prepare_blocks`` runs the array engine."""

    def test_unknown_backend_rejected(self):
        collection = make_collection([["apple"]], "dirty")
        with pytest.raises(TypeError, match="backend"):
            prepare_blocks(collection, None, backend="bogus")

    @pytest.mark.parametrize(
        "prepare",
        [prepare_blocks, reference_prepare_blocks],
        ids=["array", "loop"],
    )
    def test_backend_recorded(self, prepare):
        """Both implementations time the same four stages and feed statistics."""
        collection = make_collection([["apple", "x"], ["apple"]], "dirty")
        prepared = prepare(collection, None)
        assert prepared.timer is not None
        assert set(prepared.timer.stages) == {
            "blocking", "purging", "filtering", "candidate-extraction",
        }
        assert prepared.statistics().csr().num_blocks == len(prepared.blocks)

    def test_array_is_the_default(self):
        collection = make_collection([["apple", "x"], ["apple"]], "dirty")
        prepared = prepare_blocks(collection, None)
        assert prepared.csr is not None
        assert prepared.statistics().csr() is prepared.csr
        assert reference_prepare_blocks(collection, None).csr is None
