"""Blocks and block collections.

A *block* groups together the entities that share a blocking signature
(e.g. a token).  A *block collection* is the set of blocks produced by a
blocking method; the paper operates on *redundancy-positive* collections,
where the number of blocks two entities share is proportional to their
matching likelihood.

Entities inside blocks are referenced by node id (see
:class:`repro.datamodel.entity.EntityIndexSpace`): in Clean-Clean ER a block
keeps two separate node lists (one per source collection) so that only
cross-collection pairs are candidate comparisons; in Dirty ER a single list
is kept and every intra-block pair is a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .entity import EntityIndexSpace


@dataclass
class Block:
    """A single block.

    Parameters
    ----------
    key:
        The blocking signature (token, q-gram, suffix, ...).
    entities_first:
        Node ids of entities from the first (or only) collection.
    entities_second:
        Node ids from the second collection; empty for Dirty ER blocks.
    """

    key: str
    entities_first: List[int] = field(default_factory=list)
    entities_second: List[int] = field(default_factory=list)

    @property
    def is_bilateral(self) -> bool:
        """True for Clean-Clean ER blocks holding entities from two sources."""
        return bool(self.entities_second)

    def size(self) -> int:
        """Number of entities in the block (both sides)."""
        return len(self.entities_first) + len(self.entities_second)

    def cardinality(self) -> int:
        """Number of comparisons the block spawns (``||b||`` in the paper).

        Bilateral blocks only compare across sources; unilateral (dirty)
        blocks compare every intra-block pair.
        """
        if self.is_bilateral:
            return len(self.entities_first) * len(self.entities_second)
        inner = len(self.entities_first)
        return inner * (inner - 1) // 2

    def all_entities(self) -> List[int]:
        """All node ids contained in the block."""
        return list(self.entities_first) + list(self.entities_second)

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield every comparison (pair of node ids) the block spawns.

        Pairs are emitted with the smaller node id first for unilateral
        blocks, and as (first-side node, second-side node) for bilateral
        blocks; both conventions yield a canonical orientation because in the
        bilateral case first-side node ids are always smaller than
        second-side ones.
        """
        if self.is_bilateral:
            for i in self.entities_first:
                for j in self.entities_second:
                    yield (i, j)
        else:
            inner = self.entities_first
            for a in range(len(inner)):
                for b in range(a + 1, len(inner)):
                    i, j = inner[a], inner[b]
                    yield (i, j) if i < j else (j, i)

    def __len__(self) -> int:
        return self.size()


class BlockCollection:
    """An ordered collection of :class:`Block` objects plus bookkeeping.

    Parameters
    ----------
    blocks:
        The blocks, in a stable order; block ids are their positions.
    index_space:
        The entity/node id space the blocks refer to.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        blocks: Iterable[Block],
        index_space: EntityIndexSpace,
        name: str = "blocks",
    ) -> None:
        self.name = name
        self.index_space = index_space
        self._blocks: List[Block] = list(blocks)

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, block_id: int) -> Block:
        return self._blocks[block_id]

    # -- aggregates ------------------------------------------------------------
    def total_comparisons(self) -> int:
        """Sum of per-block cardinalities, ``||B||`` in the paper."""
        return sum(block.cardinality() for block in self._blocks)

    def total_block_assignments(self) -> int:
        """Sum of block sizes, i.e. number of (entity, block) memberships."""
        return sum(block.size() for block in self._blocks)

    def entity_block_index(self) -> Dict[int, List[int]]:
        """Map every node id to the sorted list of block ids containing it.

        This is the ``B_i`` structure the weighting schemes are defined on.
        """
        index: Dict[int, List[int]] = {}
        for block_id, block in enumerate(self._blocks):
            for node in block.all_entities():
                index.setdefault(node, []).append(block_id)
        return index

    def membership_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten into parallel ``(block_ids, node_ids)`` membership arrays.

        One entry per (entity, block) assignment, in block order.  This is the
        array-native form of :meth:`entity_block_index` consumed by the CSR
        builders in :mod:`repro.weights.sparse`.
        """
        block_parts: List[np.ndarray] = []
        node_parts: List[np.ndarray] = []
        for block_id, block in enumerate(self._blocks):
            members = block.all_entities()
            if members:
                node_parts.append(np.asarray(members, dtype=np.int64))
                block_parts.append(np.full(len(members), block_id, dtype=np.int64))
        if not block_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(block_parts), np.concatenate(node_parts)

    def without_empty_blocks(self) -> "BlockCollection":
        """Return a copy that drops blocks spawning no comparison."""
        kept = [block for block in self._blocks if block.cardinality() > 0]
        return BlockCollection(kept, self.index_space, name=self.name)

    def block_sizes(self) -> List[int]:
        """Return the size (|b|) of every block."""
        return [block.size() for block in self._blocks]

    def block_cardinalities(self) -> List[int]:
        """Return the comparison cardinality (||b||) of every block."""
        return [block.cardinality() for block in self._blocks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockCollection(name={self.name!r}, blocks={len(self)}, "
            f"comparisons={self.total_comparisons()})"
        )


def build_bilateral_blocks(
    signatures_first: Dict[str, List[int]],
    signatures_second: Dict[str, List[int]],
    index_space: EntityIndexSpace,
    name: str = "blocks",
) -> BlockCollection:
    """Assemble Clean-Clean ER blocks from per-source signature indexes.

    Only signatures appearing in *both* sources yield a block, because a
    block with entities from a single source spawns no cross-source
    comparison.
    """
    blocks = []
    for key in sorted(set(signatures_first) & set(signatures_second)):
        blocks.append(
            Block(
                key=key,
                entities_first=sorted(signatures_first[key]),
                entities_second=sorted(signatures_second[key]),
            )
        )
    return BlockCollection(blocks, index_space, name=name)


def build_unilateral_blocks(
    signatures: Dict[str, List[int]],
    index_space: EntityIndexSpace,
    name: str = "blocks",
    min_block_size: int = 2,
) -> BlockCollection:
    """Assemble Dirty ER blocks from a signature index.

    Blocks with fewer than ``min_block_size`` entities spawn no comparison
    and are dropped.
    """
    blocks = []
    for key in sorted(signatures):
        members = sorted(set(signatures[key]))
        if len(members) >= min_block_size:
            blocks.append(Block(key=key, entities_first=members))
    return BlockCollection(blocks, index_space, name=name)
