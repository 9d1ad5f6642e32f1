"""Candidate-pair extraction and the standard block-preparation pipeline.

The distinct candidate pairs of a block collection are obtained by
aggregating, for every entity, the set of entities it shares at least one
block with (redundancy removal).  :func:`prepare_blocks` chains the paper's
exact pre-processing: Token Blocking -> Block Purging -> Block Filtering ->
candidate extraction.

The chain runs on the array-native engine of :mod:`repro.blocking.arrayops`
(batched tokenization, CSR block assembly, array purging/filtering passes and
chunked vectorized pair extraction), sharded across worker processes by
:mod:`repro.parallel.blocking` when ``workers > 1``.  It hands the
entity x block CSR incidence structure forward on :attr:`PreparedBlocks.csr`
so feature generation never rebuilds it.  The readable object chain
(``BlockingMethod.build_blocks`` -> ``purge_oversized_blocks`` ->
``filter_blocks`` -> :func:`extract_candidates`) is the reference the
equivalence tests compare against; nothing here selects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..datamodel import BlockCollection, CandidateSet, EntityCollection
from ..utils.timing import StageTimer
from ..weights.sparse import EntityBlockCSR
from .arrayops import prepare_blocks_array
from .base import BlockingMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..weights import BlockStatistics


def extract_candidates(blocks: BlockCollection) -> CandidateSet:
    """Return the distinct candidate pairs (comparisons) of ``blocks``."""
    return CandidateSet.from_blocks(blocks)


@dataclass
class PreparedBlocks:
    """Output of the standard block-preparation pipeline."""

    #: the raw blocks produced by the blocking method
    raw_blocks: BlockCollection
    #: blocks surviving Block Purging
    purged_blocks: BlockCollection
    #: blocks surviving Block Filtering — the collection Meta-blocking refines
    blocks: BlockCollection
    #: the distinct candidate pairs of ``blocks``
    candidates: CandidateSet
    #: entity x block CSR of ``blocks``, prebuilt by the preparation and
    #: reused by feature generation / the blocking-graph builder (statistics
    #: build it themselves when a hand-assembled instance leaves it ``None``)
    csr: Optional[EntityBlockCSR] = field(default=None, compare=False)
    #: per-stage wall-clock of the preparation (blocking, purging,
    #: filtering, candidate-extraction)
    timer: Optional[StageTimer] = field(default=None, compare=False)
    _stats: Optional["BlockStatistics"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def statistics(self) -> "BlockStatistics":
        """Block statistics of ``blocks``, reusing what was prepared (cached).

        This is the handoff contract: statistics created here inherit
        :attr:`csr` and :attr:`candidates`, so a pipeline run over this
        preparation never rebuilds the incidence structure and reads LCP as
        the degree of each node in the candidate pairs already extracted.
        """
        if self._stats is None:
            from ..weights import BlockStatistics

            self._stats = BlockStatistics(
                self.blocks, csr=self.csr, candidates=self.candidates
            )
        return self._stats


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
    prep_timer = StageTimer()
    stages = dict(
        blocking=blocking,
        purging_fraction=purging_fraction,
        filtering_ratio=filtering_ratio,
        apply_purging=apply_purging,
        apply_filtering=apply_filtering,
        timer=prep_timer,
    )

    if worker_count > 1:
        from ..parallel.blocking import prepare_blocks_sharded
        from ..parallel.executor import ParallelExecutor

        owned = executor is None
        live_executor = executor if executor is not None else ParallelExecutor(workers)
        try:
            result = prepare_blocks_sharded(first, second, live_executor, **stages)
        finally:
            if owned:
                live_executor.close()
    else:
        result = prepare_blocks_array(first, second, **stages)

    if timer is not None:
        timer.add("block-preparation", prep_timer.total)
    return PreparedBlocks(
        raw_blocks=result.raw,
        purged_blocks=result.purged,
        blocks=result.filtered,
        candidates=result.candidates,
        csr=result.csr,
        timer=prep_timer,
    )
