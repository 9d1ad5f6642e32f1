"""Suffix-Arrays Blocking.

A redundancy-positive blocking method that creates a block for every token
suffix of length at least ``min_suffix_length``.  Suffix signatures are robust
to prefix-level noise (e.g. articles, model prefixes) and are one of the
standard alternatives cited by the paper alongside Token and Q-Grams
Blocking.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..datamodel.entity import EntityProfile
from ..utils.text import distinct_suffixes, suffixes
from .base import BlockingMethod


class SuffixArraysBlocking(BlockingMethod):
    """Create one block per distinct token suffix.

    Parameters
    ----------
    min_suffix_length:
        Minimum suffix length (default 3).
    max_block_size:
        Suffixes exhibited by more than this many entities are skipped, the
        classic Suffix-Arrays frequency cut-off.  ``None`` disables the cut.
    """

    name = "suffix-arrays-blocking"

    def __init__(self, min_suffix_length: int = 3, max_block_size: int | None = 53) -> None:
        if min_suffix_length < 1:
            raise ValueError("min_suffix_length must be at least 1")
        if max_block_size is not None and max_block_size < 2:
            raise ValueError("max_block_size must be at least 2 when set")
        self.min_suffix_length = min_suffix_length
        self.max_block_size = max_block_size

    def signatures_of(self, profile: EntityProfile) -> Set[str]:
        return distinct_suffixes(profile.text(), min_suffix_length=self.min_suffix_length)

    def signature_lists(self, profiles: Iterable[EntityProfile]) -> List[List[str]]:
        return [
            suffixes(profile.text(), min_suffix_length=self.min_suffix_length)
            for profile in profiles
        ]

    def build_blocks(self, first, second=None):  # type: ignore[override]
        """Build blocks, then drop blocks larger than ``max_block_size``.

        The object chain's statement of the cut-off; the array engine reads
        the same attribute in :func:`repro.blocking.arrayops.assemble_blocks`.
        """
        blocks = super().build_blocks(first, second)
        if self.max_block_size is None:
            return blocks
        from ..datamodel.block import BlockCollection

        kept = [block for block in blocks if block.size() <= self.max_block_size]
        return BlockCollection(kept, blocks.index_space, name=blocks.name)
