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
from typing import Iterable, Iterator, List, Tuple

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

    def membership_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten into parallel ``(block_ids, node_ids)`` membership arrays.

        One entry per (entity, block) assignment, in block order: the ``B_i``
        structure the weighting schemes are defined on, in the form the CSR
        builders of :mod:`repro.weights.sparse` consume.
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

