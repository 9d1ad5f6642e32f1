"""Schema-agnostic blocking methods and block-cleaning steps."""

from .arrayops import (
    MembershipMatrix,
    assemble_blocks,
    prepare_blocks_array,
)
from .base import BlockingMethod
from .candidate_extraction import PreparedBlocks, extract_candidates, prepare_blocks
from .filtering import filter_blocks
from .purging import purge_by_comparison_cardinality, purge_oversized_blocks
from .qgrams import QGramsBlocking
from .standard_blocking import StandardBlocking
from .suffix_arrays import SuffixArraysBlocking
from .token_blocking import TokenBlocking

__all__ = [
    "BlockingMethod",
    "MembershipMatrix",
    "PreparedBlocks",
    "QGramsBlocking",
    "StandardBlocking",
    "SuffixArraysBlocking",
    "TokenBlocking",
    "assemble_blocks",
    "extract_candidates",
    "filter_blocks",
    "prepare_blocks",
    "prepare_blocks_array",
    "purge_by_comparison_cardinality",
    "purge_oversized_blocks",
]
