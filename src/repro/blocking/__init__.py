"""Schema-agnostic blocking methods and block-cleaning steps."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BlockCleaning": "cleaning",
    "BlockingMethod": "base",
    "MembershipMatrix": "arrayops",
    "NO_CLEANING": "cleaning",
    "PAPER_CLEANING": "cleaning",
    "PreparedBlocks": "candidate_extraction",
    "QGramsBlocking": "qgrams",
    "StandardBlocking": "standard_blocking",
    "SuffixArraysBlocking": "suffix_arrays",
    "TokenBlocking": "token_blocking",
    "assemble_blocks": "arrayops",
    "prepare_blocks": "candidate_extraction",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
