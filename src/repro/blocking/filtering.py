"""Block Filtering.

Block-cleaning step (Papadakis et al., EDBT 2016) applied by the paper after
Block Purging: every entity is removed from the largest 20 % of the blocks it
appears in (equivalently, each entity keeps only its ``ratio`` = 0.8 smallest
blocks).  Small blocks correspond to infrequent, distinctive signatures, so
trimming the largest ones removes mostly superfluous comparisons.

This is the readable object formulation; the engines run the array kernel of
:mod:`repro.blocking.cleaning`, and the equivalence tests hold the two equal.
Cardinality ties are broken by the block's member-set key — the wrapping
64-bit sum of the splitmix64 images of its member ids — not by its position
in the collection, so the result does not depend on how blocks are numbered.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from ..datamodel.block import Block, BlockCollection

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _member_set_key(block: Block) -> int:
    """The order-independent 64-bit key of a block's member set."""
    return sum(map(_splitmix64, block.all_entities())) & _MASK64


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

    ranking = [(block.cardinality(), _member_set_key(block)) for block in blocks]

    # For every entity, the ids of its blocks ordered by increasing cardinality
    # (ties broken by member-set key; blocks tied on both hold the same
    # members, and by block id among those).
    entity_blocks: Dict[int, List[int]] = blocks.entity_block_index()
    retained_memberships: Set[Tuple[int, int]] = set()
    for node, block_ids in entity_blocks.items():
        ordered = sorted(block_ids, key=lambda block_id: (*ranking[block_id], block_id))
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
