"""Token Blocking, block cleaning and candidate extraction.

The paper builds every block collection with Token Blocking (Section 5.1):
one block per distinct token of the profiles' attribute values
(:func:`repro.utils.text.tokens` of ``profile.text()``), the only
parameter-free, schema-agnostic, redundancy-positive blocking method, so it
is the library's one signature extractor rather than a choice.
:func:`prepare_blocks` chains it with Block Purging, Block Filtering and
candidate extraction.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BlockCleaning": "cleaning",
    "MembershipMatrix": "arrayops",
    "NO_CLEANING": "cleaning",
    "PAPER_CLEANING": "cleaning",
    "PreparedBlocks": "candidate_extraction",
    "assemble_blocks": "arrayops",
    "prepare_blocks": "candidate_extraction",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
