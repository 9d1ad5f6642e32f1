"""Shared-memory arrays: what a shard worker writes, a reader attaches."""

import pickle

import numpy as np
import pytest

from repro.serve.shm import SharedArray, attach_view, detach_view


def test_roundtrip():
    source = np.arange(17, dtype=np.float64) * 0.5
    shared = SharedArray(source)
    try:
        view = attach_view(shared.handle)
        assert np.array_equal(view, source)
        assert view.dtype == source.dtype
    finally:
        shared.close()


def test_output_allocation():
    shared = SharedArray(shape=(5,), dtype=np.float64)
    try:
        assert shared.array.shape == (5,) and shared.array.dtype == np.float64
        shared.array[:] = 3.0
        assert np.array_equal(attach_view(shared.handle), np.full(5, 3.0))
    finally:
        shared.close()


def test_empty_array_roundtrip():
    # a zero-length export still owns a (one-byte) segment
    shared = SharedArray(np.empty(0, dtype=np.int64))
    try:
        view = attach_view(shared.handle)
        assert view.shape == (0,) and view.dtype == np.int64
    finally:
        shared.close()


def test_distinct_sources_get_distinct_segments():
    # temporaries built from one base must not alias each other's segment
    base = np.arange(1000, dtype=np.float64)
    shared = [SharedArray(base * scale) for scale in (1.0, 2.0, 3.0)]
    try:
        assert len({array.handle.name for array in shared}) == 3
        for scale, array in zip((1.0, 2.0, 3.0), shared):
            assert np.array_equal(attach_view(array.handle), base * scale)
    finally:
        for array in shared:
            array.close()


def test_the_owner_reads_its_own_live_view():
    shared = SharedArray(np.zeros(4, dtype=np.int64))
    try:
        view = attach_view(shared.handle)
        shared.array[2] = 7
        assert view.tolist() == [0, 0, 7, 0]
    finally:
        shared.close()


def test_close_unlinks_the_segment():
    shared = SharedArray(np.arange(16, dtype=np.int64))
    handle = shared.handle
    shared.close()
    assert shared.array is None
    with pytest.raises(FileNotFoundError):
        attach_view(handle)


def test_double_close_is_a_noop():
    shared = SharedArray(np.arange(3, dtype=np.int64))
    shared.close()
    shared.close()  # second close must not raise
    assert shared.array is None


def test_detaching_an_unknown_segment_is_a_noop():
    detach_view("no-such-segment")


def test_the_handle_crosses_a_pipe_by_pickle():
    shared = SharedArray(np.arange(6, dtype=np.int32).reshape(2, 3))
    try:
        handle = pickle.loads(pickle.dumps(shared.handle))
        assert handle == shared.handle
        assert handle.shape == (2, 3) and handle.dtype == np.dtype(np.int32).str
        assert np.array_equal(attach_view(handle), shared.array)
    finally:
        shared.close()
