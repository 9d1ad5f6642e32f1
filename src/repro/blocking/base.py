"""Base classes for blocking methods.

A blocking method maps entity profiles to blocking signatures and groups
entities sharing a signature into blocks.  The library distinguishes two
input shapes:

* Clean-Clean ER — two duplicate-free collections; blocks are *bilateral*
  and only cross-collection pairs are compared.
* Dirty ER — a single collection that may contain duplicates; blocks are
  *unilateral* and every intra-block pair is compared.

Concrete subclasses only have to implement :meth:`signatures_of`, the mapping
from one profile to its set of signatures (and may override
:meth:`signature_lists`, the batch form); the blocks themselves are assembled
by :func:`repro.blocking.prepare_blocks`, one array pass for every method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Set

from ..datamodel.entity import EntityProfile


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
