"""``PairProbabilities``: the session's store of live pairs' insert-time
probabilities, held as a sorted array pair with tombstones (bulk loads,
restores, compactions) plus a dict (pairs inserted one at a time).

Every lookup has to agree with a plain ``{key: probability}`` dict whichever
half of the store a key sits in — including a key whose array slot is a
tombstone and which was since re-inserted into the dict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.session import PairProbabilities


def _arrays(mapping):
    keys = np.array(sorted(mapping), dtype=np.int64)
    return keys, np.array([mapping[key] for key in keys.tolist()], dtype=np.float64)


def _assert_items(store, expected):
    keys, values = store.items()
    want_keys, want_values = _arrays(expected)
    np.testing.assert_array_equal(keys, want_keys)
    np.testing.assert_array_equal(values, want_values)


def test_pop_reads_both_halves_and_tombstones_the_arrays():
    store = PairProbabilities(*_arrays({3: 0.3, 7: 0.7, 11: 0.11}))
    store.add(np.array([5, 20], dtype=np.int64), np.array([0.5, 0.2]))

    values = store.pop(np.array([20, 7, 5], dtype=np.int64))

    np.testing.assert_array_equal(values, [0.2, 0.7, 0.5])
    _assert_items(store, {3: 0.3, 11: 0.11})
    with pytest.raises(KeyError):
        store.pop(np.array([7], dtype=np.int64))


def test_a_tombstoned_key_inserted_again_is_served_from_the_dict():
    store = PairProbabilities(*_arrays({4: 0.4, 8: 0.8}))
    store.pop(np.array([8], dtype=np.int64))
    store.add(np.array([8], dtype=np.int64), np.array([0.88]))

    _assert_items(store, {4: 0.4, 8: 0.88})
    np.testing.assert_array_equal(store.pop(np.array([8], dtype=np.int64)), [0.88])
    _assert_items(store, {4: 0.4})


def test_add_sorted_merges_drops_tombstones_and_absorbs_the_dict():
    store = PairProbabilities(*_arrays({2: 0.2, 6: 0.6, 9: 0.9}))
    store.pop(np.array([6], dtype=np.int64))
    store.add(np.array([1, 12], dtype=np.int64), np.array([0.1, 0.12]))

    store.add_sorted(*_arrays({5: 0.5, 10: 1.0}))

    expected = {1: 0.1, 2: 0.2, 5: 0.5, 9: 0.9, 10: 1.0, 12: 0.12}
    np.testing.assert_array_equal(store._keys, sorted(expected))
    assert store._alive.all() and not store._single
    _assert_items(store, expected)


_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_sorted", "pop"]),
        st.lists(st.integers(0, 40), max_size=6, unique=True),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(initial=st.dictionaries(st.integers(0, 40), st.floats(0, 1), max_size=10), ops=_ops)
def test_store_matches_a_dict_model(initial, ops):
    store = PairProbabilities(*_arrays(initial))
    model = dict(initial)
    for step, (op, raw) in enumerate(ops):
        if op == "pop":
            keys = [key for key in raw if key in model]
            popped = store.pop(np.array(keys, dtype=np.int64))
            np.testing.assert_array_equal(popped, [model.pop(key) for key in keys])
            continue
        fresh = {key: (key + step) / 100.0 for key in raw if key not in model}
        keys, values = _arrays(fresh)
        (store.add if op == "add" else store.add_sorted)(keys, values)
        model.update(fresh)
        _assert_items(store, model)
    _assert_items(store, model)
