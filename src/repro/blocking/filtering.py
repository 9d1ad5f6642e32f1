"""Block Filtering.

Block-cleaning step (Papadakis et al., EDBT 2016) applied by the paper after
Block Purging: every entity is removed from the largest 20 % of the blocks it
appears in (equivalently, each entity keeps only its ``ratio`` = 0.8 smallest
blocks).  Small blocks correspond to infrequent, distinctive signatures, so
trimming the largest ones removes mostly superfluous comparisons.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..datamodel.block import Block, BlockCollection


def filter_blocks(blocks: BlockCollection, ratio: float = 0.8) -> BlockCollection:
    """Keep, for every entity, only its ``ratio`` smallest blocks.

    Parameters
    ----------
    blocks:
        The (typically purged) input block collection.
    ratio:
        Fraction of each entity's blocks to retain, ordered by increasing
        block cardinality.  The paper uses 0.8 (drop the largest 20 %).

    Notes
    -----
    An entity always keeps at least one block (``ceil`` rounding), mirroring
    the reference JedAI implementation, so filtering never silently removes
    an entity from the block collection.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    if len(blocks) == 0:
        return blocks

    cardinalities = [block.cardinality() for block in blocks]

    # For every entity, the ids of its blocks ordered by increasing cardinality
    # (ties broken by block id for determinism).
    entity_blocks: Dict[int, List[int]] = blocks.entity_block_index()
    retained_memberships: Set[Tuple[int, int]] = set()
    for node, block_ids in entity_blocks.items():
        ordered = sorted(block_ids, key=lambda block_id: (cardinalities[block_id], block_id))
        keep_count = max(1, math.ceil(ratio * len(ordered)))
        for block_id in ordered[:keep_count]:
            retained_memberships.add((node, block_id))

    filtered: List[Block] = []
    for block_id, block in enumerate(blocks):
        first = [node for node in block.entities_first if (node, block_id) in retained_memberships]
        second = [node for node in block.entities_second if (node, block_id) in retained_memberships]
        candidate = Block(key=block.key, entities_first=first, entities_second=second)
        if candidate.cardinality() > 0:
            filtered.append(candidate)
    return BlockCollection(filtered, blocks.index_space, name=f"{blocks.name}|filtered")
