"""Candidate-pair extraction and the standard block-preparation pipeline.

The distinct candidate pairs of a block collection are obtained by
aggregating, for every entity, the set of entities it shares at least one
block with (redundancy removal).  :func:`prepare_blocks` chains the paper's
exact pre-processing: Token Blocking -> Block Purging -> Block Filtering ->
candidate extraction.

The chain runs on the array-native engine of :mod:`repro.blocking.arrayops`
(batched tokenization, CSR block assembly, array purging/filtering passes and
one sort-and-reduce pass over the expanded comparisons), and every stage's
blocks are handed out as its :class:`~repro.blocking.MembershipMatrix`.

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
then computes them with the same kernel.  This is the library's one
implementation of block preparation; the equivalence tests hold it to an
oracle built from the paper's definitions (``tests/reference.py``).
"""

from __future__ import annotations

from typing import Optional

from ..datamodel.entity import EntityCollection
from ..utils.timing import StageTimer
from .arrayops import (
    PreparedBlocks,
    assemble_blocks,
    filter_matrix,
    purge_matrix,
    reduce_candidates,
)
from .cleaning import PAPER_CLEANING, BlockCleaning


def prepare_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    cleaning: BlockCleaning = PAPER_CLEANING,
) -> PreparedBlocks:
    """Run the paper's block-preparation pipeline.

    Token Blocking, Block Purging, Block Filtering and candidate extraction:
    every stage's blocks as a membership matrix and the distinct candidate
    pairs (see :mod:`repro.blocking.arrayops`), plus the final collection's
    CSR incidence structure and the candidates' co-occurrence aggregates.

    Parameters
    ----------
    first, second:
        The input entity collection(s); ``second`` is ``None`` for Dirty ER.
    cleaning:
        Block Purging's size threshold as a fraction of all entities and
        Block Filtering's retention ratio (0.8 = drop each entity's largest
        20 %); a ``None`` field turns that step off (:data:`NO_CLEANING`:
        the raw blocks).  The default is the paper's, :data:`PAPER_CLEANING`.

    Raises
    ------
    ValueError
        When a cleaning parameter lies outside ``(0, 1]``.
    """
    stages = StageTimer()
    with stages.stage("blocking"):
        raw_matrix = assemble_blocks(first, second)
    with stages.stage("purging"):
        purged_matrix = (
            raw_matrix
            if cleaning.purging_fraction is None
            else purge_matrix(raw_matrix, cleaning.purging_fraction)
        )
    with stages.stage("filtering"):
        filtered_matrix = (
            purged_matrix
            if cleaning.filtering_ratio is None
            else filter_matrix(purged_matrix, cleaning.filtering_ratio)
        )
    with stages.stage("candidate-extraction"):
        csr = filtered_matrix.csr()
        candidates, cooccurrence = reduce_candidates(filtered_matrix, csr)
    return PreparedBlocks(
        raw_blocks=raw_matrix,
        purged_blocks=purged_matrix,
        blocks=filtered_matrix,
        candidates=candidates,
        csr=csr,
        cooccurrence=cooccurrence,
        timer=stages,
    )
