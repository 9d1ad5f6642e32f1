"""Shared utilities: text signatures, RNG, timing, validation."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "STOP_WORDS": "text",
    "SeedLike": "rng",
    "StageTimer": "timing",
    "distinct_qgrams": "text",
    "distinct_suffixes": "text",
    "distinct_tokens": "text",
    "jaccard": "text",
    "make_rng": "rng",
    "normalize": "text",
    "qgrams": "text",
    "sample_without_replacement": "rng",
    "spawn_seeds": "rng",
    "speedup": "timing",
    "suffixes": "text",
    "tokens": "text",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
