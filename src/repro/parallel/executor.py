"""The multiprocess execution engine behind the ``workers`` knob.

:class:`ParallelExecutor` owns a ``multiprocessing`` pool plus the registry
of shared-memory input arrays published to it.  Every parallel stage of the
library (sharded tokenization, candidate extraction, the pair co-occurrence
pass) goes through the same three-step protocol:

1. the parent publishes its large read-only inputs once
   (:meth:`ParallelExecutor.publish` — CSR buffers, candidate arrays) as
   shared-memory segments;
2. tasks are dispatched with :meth:`ParallelExecutor.starmap`, carrying only
   handles, scalars and deterministic range boundaries;
3. workers attach zero-copy views (:func:`repro.parallel.shm.attach_view`),
   run the same NumPy kernels the single-process path runs, and either write
   results into pre-allocated shared output buffers at disjoint offsets or
   return small result arrays.

``workers=1`` (the default everywhere) never constructs a pool: callers
short-circuit to the exact single-process implementation, which stays the
oracle the equivalence suite checks the parallel paths against.

Workers are *seedless by design*: no worker kernel draws random numbers, so
results are bit-identical for every worker count and the single RNG
entrypoint (:func:`repro.utils.rng.make_rng`) stays confined to the parent
process — see the worker-determinism notes in :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .shm import SharedArray, SharedArrayHandle

#: Sentinel accepted by every ``workers`` parameter: use all cores but one.
WORKERS_AUTO = "auto"

WorkersLike = Union[int, str, None]


def resolve_workers(workers: WorkersLike) -> int:
    """Normalise a ``workers`` knob value to a positive worker count.

    ``None`` and ``1`` mean the single-process path; ``"auto"`` picks
    ``os.cpu_count() - 1`` (at least 1) so one core stays free for the
    parent's merge work.

    Raises
    ------
    ValueError
        When the value is not a positive integer or ``"auto"``.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers == WORKERS_AUTO:
            return max(1, (os.cpu_count() or 2) - 1)
        if workers.isdigit() and int(workers) >= 1:
            return int(workers)
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be a positive integer or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous ``(start, stop)``
    ranges of near-equal size (deterministic, no empty ranges)."""
    parts = max(1, min(parts, n)) if n else 0
    bounds = np.linspace(0, n, parts + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(parts)
        if bounds[i + 1] > bounds[i]
    ]


def _preferred_start_method() -> str:
    """``fork`` where available (zero-copy inherited state, fast startup);
    ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerCrashError(RuntimeError):
    """A pool worker died (killed, OOMed, segfaulted) with tasks in flight.

    ``multiprocessing.Pool`` never completes a task whose worker died —
    without detection the parent waits forever.  The executor watches the
    pool's pids while collecting and raises this instead, naming the task
    indices (the shard numbers, for the sharded pipeline) still
    outstanding when the crash was detected.
    """

    def __init__(self, message: str, shards: Sequence[int] = ()) -> None:
        super().__init__(message)
        #: task indices that never completed (for the sharded stages these
        #: are exactly the shard numbers)
        self.shards = tuple(shards)


class ParallelExecutor:
    """A reusable worker pool plus its published shared-memory inputs.

    Parameters
    ----------
    workers:
        Worker count, ``"auto"``, or ``1``/``None`` for a no-op executor
        (tasks then run inline in the parent — callers normally short-circuit
        before building one, but the inline path keeps small inputs cheap).
    start_method:
        Override the multiprocessing start method (tests use it to exercise
        ``spawn`` portability).

    The executor is a context manager; :meth:`close` terminates the pool and
    unlinks every published segment.  Pools are created lazily on the first
    dispatched task, so constructing an executor costs nothing until a
    parallel stage actually runs.
    """

    def __init__(
        self, workers: WorkersLike = WORKERS_AUTO, start_method: Optional[str] = None
    ) -> None:
        self.workers = resolve_workers(workers)
        self._start_method = start_method or _preferred_start_method()
        self._pool = None
        #: id(source) -> (source, SharedArray); the source reference keeps
        #: the id stable for the cache's lifetime (id reuse after GC would
        #: otherwise alias a new array onto a stale segment)
        self._published: Dict[int, Tuple[np.ndarray, SharedArray]] = {}
        self._outputs: List[SharedArray] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran (closing again is a no-op)."""
        return self._closed

    def close(self) -> None:
        """Terminate the pool and unlink every shared segment.

        Idempotent: a second ``close()`` (or exiting a ``with`` block after
        an explicit close) is a no-op.  Segment cleanup runs even when the
        pool teardown raises, so a long-lived caller — the serving daemon
        keeps one executor for its whole lifetime — never leaks
        shared-memory segments on an unclean shutdown path.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._pool is not None:
                pool, self._pool = self._pool, None
                pool.terminate()
                pool.join()
        finally:
            try:
                for _, shared in self._published.values():
                    shared.close()
            finally:
                self._published.clear()
                self.release_outputs()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- shared-memory registry --------------------------------------------------
    def publish(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy ``array`` into shared memory once; return its handle.

        Publication is idempotent per array object (keyed by identity, with
        the source kept referenced so the key stays valid), so the CSR
        buffers of one preparation are shared with the pool exactly once no
        matter how many stages read them.  Segments live until
        :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        key = id(array)
        entry = self._published.get(key)
        if entry is None:
            entry = (array, SharedArray(array))
            self._published[key] = entry
        return entry[1].handle

    def allocate_output(self, shape, dtype) -> Tuple[SharedArrayHandle, np.ndarray]:
        """Allocate a zero-initialised shared output buffer.

        Returns the picklable handle (for workers) and the parent-side view.
        The buffer stays mapped until :meth:`release_outputs` or
        :meth:`close`; callers copy results out before releasing.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        shared = SharedArray(shape=tuple(shape), dtype=dtype)
        shared.array[...] = np.zeros((), dtype=dtype)
        self._outputs.append(shared)
        return shared.handle, shared.array

    def release_outputs(self) -> None:
        """Unlink every output buffer allocated so far."""
        for shared in self._outputs:
            shared.close()
        self._outputs.clear()

    # -- dispatch ----------------------------------------------------------------
    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pool is None:
            context = multiprocessing.get_context(self._start_method)
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def _worker_pids(self) -> frozenset:
        pool = self._pool
        if pool is None:
            return frozenset()
        try:
            return frozenset(process.pid for process in pool._pool)
        except (AttributeError, TypeError):  # pragma: no cover - API drift
            return frozenset()

    #: how long (seconds) after a worker-pid change outstanding tasks get to
    #: finish before the pool is declared crashed; extended while results
    #: keep arriving (a pid change with progress is a pool restarting a
    #: worker, not a wedged pool)
    _crash_grace = 1.0

    def starmap(self, func: Callable, tasks: Sequence[tuple]) -> list:
        """Run ``func(*task)`` for every task, preserving task order.

        ``func`` must be a module-level function (picklable by qualified
        name — see :mod:`repro.parallel.worker`).  With one worker, or a
        single task, the calls run inline in the parent: same code path,
        no pool, which keeps the ``workers=1`` oracle and tiny inputs cheap.

        Raises
        ------
        WorkerCrashError
            When a pool worker dies with tasks in flight (a plain pool
            ``starmap`` would wait forever for the dead worker's task).
        """
        import time

        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers == 1 or len(tasks) == 1:
            return [func(*task) for task in tasks]
        pool = self._ensure_pool()
        # apply_async per task (chunksize-1 semantics, order preserved by
        # index) so collection can interleave with pid watching
        pending = [pool.apply_async(func, task) for task in tasks]
        results: List = [None] * len(pending)
        outstanding = set(range(len(pending)))
        known_pids = self._worker_pids()
        suspicious = False  # a worker pid changed: some task may be lost
        crash_deadline = 0.0
        while outstanding:
            progressed = False
            for position in sorted(outstanding):
                if pending[position].ready():
                    results[position] = pending[position].get()
                    outstanding.discard(position)
                    progressed = True
            if not outstanding:
                break
            if progressed:
                if suspicious:
                    # survivors are still delivering; give the remaining
                    # tasks another grace window before declaring them lost
                    crash_deadline = time.monotonic() + self._crash_grace
                continue
            current_pids = self._worker_pids()
            if current_pids != known_pids:
                known_pids = current_pids
                suspicious = True
                crash_deadline = time.monotonic() + self._crash_grace
            if suspicious and time.monotonic() > crash_deadline:
                from ..obs import events

                events.emit(
                    "worker_crash",
                    pool="parallel-executor",
                    lost_tasks=sorted(outstanding),
                )
                raise WorkerCrashError(
                    "a pool worker died with tasks in flight "
                    f"(tasks {sorted(outstanding)} never completed)",
                    shards=sorted(outstanding),
                )
            pending[min(outstanding)].wait(0.02)
        return results
