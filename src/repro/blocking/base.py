"""Base classes for blocking methods.

A blocking method maps entity profiles to blocking signatures and groups
entities sharing a signature into blocks.  The library distinguishes two
input shapes:

* Clean-Clean ER — two duplicate-free collections; blocks are *bilateral*
  and only cross-collection pairs are compared.
* Dirty ER — a single collection that may contain duplicates; blocks are
  *unilateral* and every intra-block pair is compared.

Concrete subclasses only have to implement :meth:`signatures_of`, the mapping
from one profile to its set of signatures; the rest of the machinery (index
building, block assembly) is shared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Set

from ..datamodel.block import (
    BlockCollection,
    build_bilateral_blocks,
    build_unilateral_blocks,
)
from ..datamodel.entity import EntityCollection, EntityIndexSpace, EntityProfile


class BlockingMethod(ABC):
    """Abstract schema-agnostic blocking method."""

    #: name used in block collection labels and reports
    name: str = "blocking"
    #: blocks with more entities than this are dropped at assembly (the
    #: Suffix-Arrays frequency cut-off); ``None`` keeps every block
    max_block_size: Optional[int] = None

    @abstractmethod
    def signatures_of(self, profile: EntityProfile) -> Set[str]:
        """Return the blocking signatures of one entity profile."""

    def signature_lists(self, profiles: Iterable[EntityProfile]) -> List[List[str]]:
        """Per-profile signature lists for batch (array-engine) assembly.

        ``profiles`` is only iterated: a collection, a tuple or a plain
        list.  Duplicates are allowed — the array engine deduplicates
        while assembling the blocks — so subclasses may override this to skip
        the per-profile set building of :meth:`signatures_of`.
        """
        return [list(self.signatures_of(profile)) for profile in profiles]

    # -- shared machinery -------------------------------------------------------
    def _signature_index(
        self, collection: EntityCollection, node_offset: int
    ) -> Dict[str, List[int]]:
        """Map every signature to the node ids of entities exhibiting it."""
        index: Dict[str, List[int]] = {}
        for position, profile in enumerate(collection):
            for signature in self.signatures_of(profile):
                index.setdefault(signature, []).append(node_offset + position)
        return index

    def build_blocks(
        self,
        first: EntityCollection,
        second: Optional[EntityCollection] = None,
    ) -> BlockCollection:
        """Build the block collection for one (dirty) or two (clean) collections.

        Parameters
        ----------
        first:
            The first (or only) entity collection.
        second:
            The second collection for Clean-Clean ER, or ``None`` for Dirty ER.
        """
        if second is None:
            index_space = EntityIndexSpace(len(first))
            signatures = self._signature_index(first, node_offset=0)
            return build_unilateral_blocks(
                signatures, index_space, name=f"{self.name}({first.name})"
            )
        index_space = EntityIndexSpace(len(first), len(second))
        signatures_first = self._signature_index(first, node_offset=0)
        signatures_second = self._signature_index(second, node_offset=len(first))
        return build_bilateral_blocks(
            signatures_first,
            signatures_second,
            index_space,
            name=f"{self.name}({first.name},{second.name})",
        )

    def __call__(
        self,
        first: EntityCollection,
        second: Optional[EntityCollection] = None,
    ) -> BlockCollection:
        """Alias for :meth:`build_blocks` so methods can be used as callables."""
        return self.build_blocks(first, second)
