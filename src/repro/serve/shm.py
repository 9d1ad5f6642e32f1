"""Shared-memory NumPy arrays for the shard workers' read states.

A shard worker (:mod:`repro.serve.workers`) ships its read-state arrays to
the daemon through ``multiprocessing.shared_memory`` segments: the worker
writes each array into a segment it owns, only the segment's name, shape and
dtype cross the pipe, and the daemon attaches a view by name and copies out
— no array crosses a process boundary through pickle.

Two pieces:

* :class:`SharedArray` — owner side: allocate a segment, expose the NumPy
  view and the picklable :class:`SharedArrayHandle`, unlink on close.
* :func:`attach_view` — reader side: attach a handle and return the view,
  caching attachments per process so repeated reads reuse the mapping.

Python < 3.13 registers *attached* segments with the resource tracker as if
the attaching process owned them, which triggers spurious "leaked
shared_memory" warnings (and early unlinks) when workers exit; the attach
path suppresses that registration.  Only owners register, so only the shard
workers run a resource tracker — one each, a separate interpreter started on
the worker's first export (the daemon has none to share across ``fork``).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class SharedArrayHandle:
    """A picklable reference to a shared-memory NumPy array."""

    #: shared-memory segment name
    name: str
    #: array shape
    shape: Tuple[int, ...]
    #: dtype string (``np.dtype.str``, endianness included)
    dtype: str


class SharedArray:
    """A NumPy array backed by a shared-memory segment this process owns.

    Parameters
    ----------
    source:
        Array to copy into the segment, or ``None`` with ``shape``/``dtype``
        to allocate an uninitialised output buffer.
    """

    def __init__(
        self,
        source: np.ndarray = None,
        shape: Tuple[int, ...] = None,
        dtype=None,
    ) -> None:
        if source is not None:
            source = np.ascontiguousarray(source)
            shape, dtype = source.shape, source.dtype
        else:
            dtype = np.dtype(dtype)
        size = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        if source is not None:
            self.array[...] = source
        self.handle = SharedArrayHandle(
            name=self._shm.name, shape=tuple(shape), dtype=np.dtype(dtype).str
        )
        self._closed = False
        _OWNED[self._shm.name] = self.array

    def close(self) -> None:
        """Release the view and unlink the segment (owner responsibility)."""
        if self._closed:
            return
        self._closed = True
        _OWNED.pop(self._shm.name, None)
        self.array = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


#: Segments *owned* by this process, keyed by name.  When the owner reads
#: its own handle (a replica run in-process), ``attach_view`` serves the
#: owner's live view directly instead of opening a second mapping — which
#: would outlive ``close()``/unlink in the process-local attach cache and
#: could alias a recycled segment name.
_OWNED: Dict[str, np.ndarray] = {}

#: Process-local cache of attached segments, keyed by segment name.  A reader
#: attaches each segment once and reuses the mapping across reads; a segment
#: its owner retires is dropped with :func:`detach_view`.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def attach_view(handle: SharedArrayHandle) -> np.ndarray:
    """Return the NumPy view of a shared array owned by another process.

    The segment is attached read-write; callers by convention never write
    through it.
    """
    owned = _OWNED.get(handle.name)
    if owned is not None:
        return owned.reshape(handle.shape)
    segment = _ATTACHED.get(handle.name)
    if segment is None:
        # suppress the tracker registration the attach would perform: the
        # owner is the only process that may unlink the segment.
        # (Unregistering *after* the attach is not equivalent: the
        # registration alone starts a resource-tracker process here.  The
        # daemon never starts one — it only attaches — so no tracker is
        # inherited across ``fork``: each shard worker starts its own on its
        # first export, and the segments it owns are its tracker's alone.)
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = original_register
        _ATTACHED[handle.name] = segment
    return np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf)


def detach_view(name: str) -> None:
    """Drop this process's cached attachment of segment ``name``.

    Safe to call for unknown or owner-side names (no-op).  Callers must not
    hold views into the segment past this point; the serve read path calls
    it after copying a worker's export out of shared memory, so superseded
    segments the worker has already unlinked do not linger in the attach
    cache (the parent-side half of the ExportSlots leak fix).
    """
    segment = _ATTACHED.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - platform dependent
        pass
