"""Equivalence tests: ``prepare_blocks`` vs the reference built from the paper's
definitions.

The array engine (:mod:`repro.blocking.arrayops`) must be block-for-block and
pair-for-pair identical to ``reference_prepare_blocks`` — a dict per
signature, purging and filtering over ``Block`` member lists, the Python set
of every block's comparisons — raw, purged and filtered collections (read
back through ``blocks_of``, with the per-block sizes, cardinalities and the
pruning totals the library reads off each matrix), candidate pairs, and the
handed-over CSR incidence structure — across unilateral and bilateral
inputs, with and without purging/filtering, over texts the tokeniser's fold
actually changes (mixed case, punctuation, accents, repeated tokens).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blocking.arrayops as arrayops
import repro.utils.text as utils_text
from repro.blocking import NO_CLEANING, PAPER_CLEANING, BlockCleaning, prepare_blocks
from repro.blocking.arrayops import _dictionary_encode, encode_signatures
from repro.core.pruning import BlockTotals
from repro.datamodel import EntityCollection, make_profile
from repro.datasets import load_dirty_dataset
from repro.utils.text import tokens

from reference import (
    blocks_of,
    pair_tuples,
    reference_encode_signatures,
    reference_prepare_blocks,
    reference_totals,
)

pytestmark = pytest.mark.equivalence

#: a small vocabulary (frequent words included) so random texts collide heavily
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


#: a cleaning with each step off (``None``) or on at one of a few parameters
cleanings = st.builds(
    BlockCleaning,
    st.one_of(st.none(), st.sampled_from((0.3, 0.5, 1.0))),
    st.one_of(st.none(), st.sampled_from((0.3, 0.5, 0.8, 1.0))),
)


def assert_collections_identical(loop_blocks, array_blocks):
    """Block for block, read back as the oracle's objects; then the sizes,
    cardinalities and totals the library reads off its matrix, against the
    oracle's own per-block counts."""
    loop_objects, array_objects = blocks_of(loop_blocks), blocks_of(array_blocks)
    assert array_objects.name == loop_objects.name
    assert array_objects.index_space == loop_objects.index_space
    assert len(array_blocks) == len(array_objects) == len(loop_objects)
    for loop_block, array_block in zip(loop_objects, array_objects):
        assert array_block.key == loop_block.key
        assert array_block.entities_first == loop_block.entities_first
        assert array_block.entities_second == loop_block.entities_second
    sizes = [block.size() for block in loop_objects]
    cardinalities = [block.cardinality() for block in loop_objects]
    assert array_blocks.block_sizes().tolist() == sizes
    assert array_blocks.block_cardinalities().tolist() == cardinalities
    assert BlockTotals.of(array_blocks) == reference_totals(loop_objects)


def assert_equivalent(first, second, cleaning=PAPER_CLEANING):
    loop = reference_prepare_blocks(first, second, cleaning)
    array = prepare_blocks(first, second, cleaning)
    assert_collections_identical(loop.raw_blocks, array.raw_blocks)
    assert_collections_identical(loop.purged_blocks, array.purged_blocks)
    assert_collections_identical(loop.blocks, array.blocks)
    assert pair_tuples(loop.candidates) == pair_tuples(array.candidates)
    assert loop.candidates.index_space == array.candidates.index_space
    reference_csr = loop.statistics().csr()
    assert array.statistics().num_blocks == len(loop.blocks)
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
        cleaning=cleanings,
    )
    def test_bilateral(self, first, second, cleaning):
        assert_equivalent(first, second, cleaning)

    @settings(max_examples=60, deadline=None)
    @given(
        collection=collections(name="dirty", max_entities=10),
        cleaning=cleanings,
    )
    def test_unilateral(self, collection, cleaning):
        assert_equivalent(collection, None, cleaning)


class TestEncodeKernel:
    """``encode_signatures`` against the per-token ``setdefault`` loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        first=collections(name="shop-1"),
        second=st.one_of(st.none(), collections(name="shop-2")),
    )
    def test_same_stream_as_the_loop(self, first, second):
        profiles = list(first) + list(second or ())
        token_lists = [tokens(profile.text()) for profile in profiles]
        expected = reference_encode_signatures(token_lists)
        ours_all = encode_signatures(token_lists)
        for ours, theirs in zip(ours_all, expected):
            assert_same_array(ours, theirs)
        codes, nodes, vocabulary = _dictionary_encode(first, second)
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
            make_collection(rows, "dirty"), None, cleaning=BlockCleaning(1.0, 0.8)
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
        candidate pair equal to the reference's."""
        dataset = load_dirty_dataset("D10K", seed=0, scale=0.01)
        loop, array = assert_equivalent(dataset.collection, None)
        assert len(array.candidates) > 0

    def test_degenerate_single_side_blocks_after_filtering(self):
        """Filtering can strand clean-clean blocks with one populated side.

        Such a block then spawns intra-source pairs (``Block.is_bilateral``
        flips); the array path must count them as the reference does.
        """
        first = make_collection(
            [["apple", "x"], ["apple", "x"], ["apple"], ["apple"]], "shop-1"
        )
        second = make_collection([["apple", "x", "s20", "pro"]], "shop-2")
        loop, array = assert_equivalent(
            first, second, cleaning=BlockCleaning(filtering_ratio=0.3)
        )
        stranded = [block for block in blocks_of(loop.blocks) if not block.is_bilateral]
        assert stranded, "the construction must strand a single-side block"
        # the stranded block spawns an intra-source pair both implementations keep
        assert (2, 3) in pair_tuples(loop.candidates)


class TestBackendSwitch:
    """There is no switch: ``prepare_blocks`` runs the array engine."""

    def test_unknown_backend_rejected(self):
        collection = make_collection([["apple"]], "dirty")
        with pytest.raises(TypeError, match="backend"):
            prepare_blocks(collection, None, backend="bogus")

    def test_backend_recorded(self):
        """The preparation times its four stages and feeds statistics."""
        collection = make_collection([["apple", "x"], ["apple"]], "dirty")
        prepared = prepare_blocks(collection, None)
        assert prepared.timer is not None
        assert set(prepared.timer.stages) == {
            "blocking", "purging", "filtering", "candidate-extraction",
        }
        assert prepared.statistics().csr().num_blocks == len(prepared.blocks)

    def test_the_oracle_never_calls_the_tokeniser_it_checks(self, monkeypatch):
        """``reference_prepare_blocks`` finds the tokens with its own regular
        expression (its imports are pinned in ``tests/test_guards.py``)."""

        def refused(text):
            raise AssertionError("the oracle called repro.utils.text.tokens")

        monkeypatch.setattr(utils_text, "tokens", refused)
        monkeypatch.setattr(arrayops, "tokens", refused)
        collection = make_collection([["Apple", "x"], ["apple"]], "dirty")
        prepared = reference_prepare_blocks(collection, None, NO_CLEANING)
        assert prepared.raw_blocks.keys == ["apple"] and len(prepared.candidates) == 1

    def test_array_is_the_default(self):
        collection = make_collection([["apple", "x"], ["apple"]], "dirty")
        prepared = prepare_blocks(collection, None)
        assert prepared.csr is not None
        assert prepared.statistics().csr() is prepared.csr
        assert reference_prepare_blocks(collection, None).csr is None
