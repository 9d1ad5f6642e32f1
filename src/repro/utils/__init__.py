"""Shared utilities: the tokeniser, RNG, timing, validation."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "SeedLike": "rng",
    "StageTimer": "timing",
    "make_rng": "rng",
    "sample_without_replacement": "rng",
    "spawn_seeds": "rng",
    "speedup": "timing",
    "tokens": "text",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
