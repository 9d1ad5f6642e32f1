"""Block Filtering does not depend on how the blocks are numbered.

Batch block ids are sorted-signature ranks, a streaming index numbers its
blocks in arrival order and a merged view shard-major, and the streamed
answer runs the very filtering kernel batch preparation runs
(:mod:`repro.blocking.cleaning`).  So the three implementations —
``filter_matrix`` (the array kernel), ``filter_blocks`` (the object oracle)
and ``reference_prepare_blocks`` (the object chain end to end) — rank blocks
by (cardinality, member-set key), and this property holds them to it: over
random collections and ratios they agree, and their filtered memberships, as
``(signature, node)`` pairs, are unchanged when the block ids are relabelled
by reversed or shuffled signature order.  A cardinality tie broken by block
id fails it (the AbtBuy collection below is such a counter-example).

Blocks whose input member sets are equal stay tied on (cardinality, key) and
are interchangeable for every scheme, so a signature is compared through the
member set of its input block: the multiset of ``(member set, node)``.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenBlocking, filter_blocks, prepare_blocks
from repro.blocking.arrayops import _matrix_from_sorted, assemble_blocks, filter_matrix
from repro.datamodel import BlockCollection
from repro.datasets import load_benchmark

from reference import reference_prepare_blocks
from test_array_equivalence import collections


def _relabelled(matrix, order):
    """``matrix`` with block ``order[i]`` renumbered ``i``."""
    new_id = np.empty(matrix.num_blocks, dtype=np.int64)
    new_id[order] = np.arange(order.size, dtype=np.int64)
    block_of = new_id[matrix.block_of]
    by_block = np.lexsort((matrix.nodes, block_of))
    return _matrix_from_sorted(
        [matrix.keys[position] for position in order],
        block_of[by_block],
        matrix.nodes[by_block],
        matrix.index_space,
        matrix.name,
    )


def _members_of(matrix):
    """Signature -> the member set of its block in ``matrix``."""
    return {block.key: frozenset(block.all_entities()) for block in matrix.build_block_objects()}


def _memberships(matrix, members=None):
    """``(signature, node)`` memberships — or, given the input's
    :func:`_members_of`, the multiset of ``(input member set, node)``."""
    pairs = [
        (matrix.keys[block], int(node))
        for block, node in zip(matrix.block_of.tolist(), matrix.nodes.tolist())
    ]
    if members is None:
        return set(pairs)
    return Counter((members[key], node) for key, node in pairs)


def _object_memberships(blocks, members=None):
    pairs = [(block.key, node) for block in blocks for node in block.all_entities()]
    if members is None:
        return set(pairs)
    return Counter((members[key], node) for key, node in pairs)


def _orders(num_blocks, seed):
    return (
        np.arange(num_blocks)[::-1],
        np.random.default_rng(seed).permutation(num_blocks),
    )


def _assert_numbering_free(matrix, ratio, seed):
    members = _members_of(matrix)
    filtered = filter_matrix(matrix, ratio)
    objects = BlockCollection(matrix.build_block_objects(), matrix.index_space)
    assert _object_memberships(filter_blocks(objects, ratio)) == _memberships(filtered)
    filtered = _memberships(filtered, members)
    for order in _orders(matrix.num_blocks, seed):
        relabelled = _relabelled(matrix, order)
        assert _memberships(filter_matrix(relabelled, ratio), members) == filtered
        blocks = BlockCollection(
            [objects[int(position)] for position in order], matrix.index_space
        )
        assert _object_memberships(filter_blocks(blocks, ratio), members) == filtered


@settings(max_examples=120, deadline=None)
@given(
    first=collections("a", max_entities=10),
    second=st.one_of(st.none(), collections("b", max_entities=10)),
    ratio=st.floats(0.05, 1.0),
    purge=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_filtering_is_independent_of_block_numbering(first, second, ratio, purge, seed):
    raw = assemble_blocks(TokenBlocking(), first, second)
    prepared = prepare_blocks(first, second, filtering_ratio=ratio, apply_purging=purge)
    chain = reference_prepare_blocks(first, second, filtering_ratio=ratio, apply_purging=purge)
    assert _object_memberships(chain.blocks) == _object_memberships(prepared.blocks)
    purged = prepare_blocks(first, second, apply_purging=purge, apply_filtering=False)
    assert _object_memberships(purged.blocks) == _memberships(purged.blocks._matrix)
    _assert_numbering_free(purged.blocks._matrix, ratio, seed)
    if raw.num_blocks:
        _assert_numbering_free(raw, ratio, seed)


def test_a_real_collection_is_numbering_free():
    """AbtBuy (seed 7): reversing the block ids under an id tie-break moves
    filtered memberships; under the member-set key it moves none."""
    dataset = load_benchmark("AbtBuy", seed=7, scale=0.2)
    purged = prepare_blocks(dataset.first, dataset.second, apply_filtering=False)
    _assert_numbering_free(purged.blocks._matrix, 0.8, 7)
