"""Candidate-pair extraction and the standard block-preparation pipeline.

The distinct candidate pairs of a block collection are obtained by
aggregating, for every entity, the set of entities it shares at least one
block with (redundancy removal).  :func:`prepare_blocks` chains the paper's
exact pre-processing: Token Blocking -> Block Purging -> Block Filtering ->
candidate extraction.

The chain runs on the array-native engine of :mod:`repro.blocking.arrayops`
(batched tokenization, CSR block assembly, array purging/filtering passes and
one sort-and-reduce pass over the expanded comparisons), sharded across
worker processes by :mod:`repro.parallel.blocking` when ``workers > 1``.

The hand-off contract: everything the answer phase would otherwise derive
again from the blocks rides forward on :class:`PreparedBlocks` —
the entity x block CSR incidence structure (:attr:`PreparedBlocks.csr`),
the distinct candidate pairs (LCP is a node's degree in them) and, from the
serial engine, the pairs' co-occurrence aggregates
(:attr:`PreparedBlocks.cooccurrence`), reduced from the *same* expansion of
the comparisons that found the pairs.  :meth:`PreparedBlocks.statistics`
installs all three, so feature generation rebuilds no incidence structure
and ``stats.pair_cooccurrence(candidates)`` is a cache hit.  The sharded
engine, and a key space the reduce pass refuses
(:func:`repro.pairs.key_field_bits`), hand no aggregates; the answer phase
then computes them with the same kernel.  The readable object chain
(``BlockingMethod.build_blocks`` -> ``purge_oversized_blocks`` ->
``filter_blocks`` -> :func:`extract_candidates`) is the reference the
equivalence tests compare against; nothing here selects it.
"""

from __future__ import annotations

from typing import Optional

from ..datamodel.block import BlockCollection
from ..datamodel.candidates import CandidateSet
from ..datamodel.entity import EntityCollection
from ..utils.timing import StageTimer
from .arrayops import PreparedBlocks, prepare_blocks_array
from .base import BlockingMethod


def extract_candidates(blocks: BlockCollection) -> CandidateSet:
    """Return the distinct candidate pairs (comparisons) of ``blocks``."""
    return CandidateSet.from_blocks(blocks)


def prepare_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    blocking: Optional[BlockingMethod] = None,
    purging_fraction: float = 0.5,
    filtering_ratio: float = 0.8,
    apply_purging: bool = True,
    apply_filtering: bool = True,
    timer: Optional[StageTimer] = None,
    workers=1,
    executor=None,
) -> PreparedBlocks:
    """Run the paper's block-preparation pipeline.

    Parameters
    ----------
    first, second:
        The input entity collection(s); ``second`` is ``None`` for Dirty ER.
    blocking:
        The blocking method (default :class:`TokenBlocking`, as in the paper).
    purging_fraction:
        Block Purging size threshold as a fraction of all entities.
    filtering_ratio:
        Block Filtering retention ratio (0.8 = drop each entity's largest 20 %).
    apply_purging, apply_filtering:
        Toggle the cleaning steps (the scalability experiments skip filtering).
    timer:
        Optional :class:`StageTimer`; the preparation's total wall-clock is
        added to its ``"block-preparation"`` stage (the per-stage breakdown
        stays on :attr:`PreparedBlocks.timer`).
    workers:
        Worker-process count (or ``"auto"``) for the sharded engine of
        :mod:`repro.parallel`.  The default ``1`` is the exact
        single-process path and stays the oracle; any other value produces
        bit-identical prepared blocks.
    executor:
        Optional live :class:`repro.parallel.ParallelExecutor` to reuse
        (amortises pool startup and shared-memory publication across
        stages); when omitted and ``workers > 1``, one is created and
        closed around the preparation.
    """
    from ..parallel.executor import resolve_workers

    worker_count = executor.workers if executor is not None else resolve_workers(workers)
    owned = None
    if worker_count > 1 and executor is None:
        from ..parallel.executor import ParallelExecutor

        executor = owned = ParallelExecutor(workers)
    try:
        prepared = prepare_blocks_array(
            first,
            second,
            blocking=blocking,
            purging_fraction=purging_fraction,
            filtering_ratio=filtering_ratio,
            apply_purging=apply_purging,
            apply_filtering=apply_filtering,
            executor=executor if worker_count > 1 else None,
        )
    finally:
        if owned is not None:
            owned.close()
    if timer is not None:
        timer.add("block-preparation", prepared.timer.total)
    return prepared
