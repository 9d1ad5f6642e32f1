"""Candidate-pair extraction and the standard block-preparation pipeline.

The distinct candidate pairs of a block collection are obtained by
aggregating, for every entity, the set of entities it shares at least one
block with (redundancy removal).  :func:`prepare_blocks` chains the paper's
exact pre-processing: Token Blocking -> Block Purging -> Block Filtering ->
candidate extraction.

The chain runs on the array-native engine of :mod:`repro.blocking.arrayops`
(batched tokenization, CSR block assembly, array purging/filtering passes and
one sort-and-reduce pass over the expanded comparisons).

The hand-off contract: everything the answer phase would otherwise derive
again from the blocks rides forward on :class:`PreparedBlocks` —
the entity x block CSR incidence structure (:attr:`PreparedBlocks.csr`),
the distinct candidate pairs (LCP is a node's degree in them) and the pairs'
co-occurrence aggregates (:attr:`PreparedBlocks.cooccurrence`), reduced from
the *same* expansion of the comparisons that found the pairs.
:meth:`PreparedBlocks.statistics` installs all three, so feature generation
rebuilds no incidence structure and ``stats.pair_cooccurrence(candidates)``
is a cache hit.  A key space the reduce pass refuses
(:func:`repro.pairs.key_field_bits`) hands no aggregates; the answer phase
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
from .arrayops import (
    LazyBlockCollection,
    PreparedBlocks,
    assemble_blocks,
    filter_matrix,
    purge_matrix,
    reduce_candidates,
)
from .base import BlockingMethod
from .cleaning import PAPER_CLEANING
from .token_blocking import TokenBlocking


def extract_candidates(blocks: BlockCollection) -> CandidateSet:
    """Return the distinct candidate pairs (comparisons) of ``blocks``."""
    return CandidateSet.from_blocks(blocks)


def prepare_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    blocking: Optional[BlockingMethod] = None,
    purging_fraction: float = PAPER_CLEANING.purging_fraction,
    filtering_ratio: float = PAPER_CLEANING.filtering_ratio,
    apply_purging: bool = True,
    apply_filtering: bool = True,
    timer: Optional[StageTimer] = None,
) -> PreparedBlocks:
    """Run the paper's block-preparation pipeline.

    Produces bit-identical blocks and candidate pairs to the object chain
    (see :mod:`repro.blocking.arrayops`), plus the final collection's CSR
    incidence structure and the candidates' co-occurrence aggregates.

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
    """
    stages = StageTimer()
    method = blocking if blocking is not None else TokenBlocking()
    with stages.stage("blocking"):
        raw_matrix = assemble_blocks(method, first, second)
    with stages.stage("purging"):
        purged_matrix = (
            purge_matrix(raw_matrix, purging_fraction) if apply_purging else raw_matrix
        )
    with stages.stage("filtering"):
        filtered_matrix = (
            filter_matrix(purged_matrix, filtering_ratio) if apply_filtering else purged_matrix
        )
    with stages.stage("candidate-extraction"):
        csr = filtered_matrix.csr()
        candidates, cooccurrence = reduce_candidates(filtered_matrix, csr)
    if timer is not None:
        timer.add("block-preparation", stages.total)
    return PreparedBlocks(
        raw_blocks=LazyBlockCollection(raw_matrix),
        purged_blocks=LazyBlockCollection(purged_matrix),
        blocks=LazyBlockCollection(filtered_matrix),
        candidates=candidates,
        csr=csr,
        cooccurrence=cooccurrence,
        timer=stages,
    )
