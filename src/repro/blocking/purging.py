"""Block Purging.

Parameter-free block-cleaning step (Papadakis et al., TKDE 2012) applied by
the paper right after Token Blocking: blocks whose signature is exhibited by
more than half of the entity profiles carry no distinguishing information
(stop-words, ubiquitous category names) and are discarded.

Two variants are provided:

* :func:`purge_oversized_blocks` — the size-threshold rule used in the paper
  ("discards all the blocks that contain more than half of the entity
  profiles").
* :func:`purge_by_comparison_cardinality` — the original cardinality-based
  formulation that finds the largest block cardinality whose retention does
  not lower comparison efficiency; provided for completeness/ablation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..datamodel.block import Block, BlockCollection


def purge_oversized_blocks(
    blocks: BlockCollection, max_entity_fraction: float = 0.5
) -> BlockCollection:
    """Drop blocks containing more than ``max_entity_fraction`` of all entities.

    Parameters
    ----------
    blocks:
        The input block collection.
    max_entity_fraction:
        Maximum allowed block size, as a fraction of the total number of
        entities in the node space (default 0.5, the paper's rule).
    """
    if not 0.0 < max_entity_fraction <= 1.0:
        raise ValueError("max_entity_fraction must be in (0, 1]")
    limit = max_entity_fraction * blocks.index_space.total
    kept = [block for block in blocks if block.size() <= limit]
    return BlockCollection(kept, blocks.index_space, name=f"{blocks.name}|purged")


def purge_by_comparison_cardinality(blocks: BlockCollection) -> BlockCollection:
    """Cardinality-based Block Purging (Papadakis et al. 2012).

    Blocks are examined in decreasing comparison cardinality; the purging
    threshold is the largest cardinality at which the ratio of block
    assignments to comparisons stops improving.  Blocks with a cardinality
    above the threshold are discarded.
    """
    if len(blocks) == 0:
        return blocks

    stats: List[Tuple[int, int, int]] = []  # (cardinality, comparisons, assignments)
    for block in blocks:
        stats.append((block.cardinality(), block.cardinality(), block.size()))
    stats.sort(key=lambda item: item[0])

    # Aggregate duplicates of the same cardinality.
    aggregated: List[Tuple[int, int, int]] = []
    for cardinality, comparisons, assignments in stats:
        if aggregated and aggregated[-1][0] == cardinality:
            previous = aggregated[-1]
            aggregated[-1] = (
                cardinality,
                previous[1] + comparisons,
                previous[2] + assignments,
            )
        else:
            aggregated.append((cardinality, comparisons, assignments))

    # Cumulative sums from the smallest cardinality up.
    total_comparisons = 0
    total_assignments = 0
    cumulative: List[Tuple[int, float]] = []
    for cardinality, comparisons, assignments in aggregated:
        total_comparisons += comparisons
        total_assignments += assignments
        if total_comparisons > 0:
            cumulative.append((cardinality, total_assignments / total_comparisons))

    if not cumulative:
        return blocks

    # The threshold is the cardinality where the assignments/comparisons ratio
    # last increases; beyond it, adding larger blocks only dilutes the ratio.
    threshold = cumulative[-1][0]
    best_ratio = -1.0
    for cardinality, ratio in cumulative:
        if ratio >= best_ratio:
            best_ratio = ratio
            threshold = cardinality

    kept = [block for block in blocks if block.cardinality() <= threshold]
    return BlockCollection(kept, blocks.index_space, name=f"{blocks.name}|purged")
