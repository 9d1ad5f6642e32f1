"""Entity Resolution data model: entities, blocks, candidate pairs, ground truth."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "CandidateSet": "candidates",
    "EntityCollection": "entity",
    "EntityIndexSpace": "entity",
    "EntityProfile": "entity",
    "GroundTruth": "ground_truth",
    "collection_from_dicts": "entity",
    "make_profile": "entity",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
