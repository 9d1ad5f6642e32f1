"""Synthetic vocabularies for dataset generation.

The benchmark generators build entity profiles out of domain vocabularies
(brands, model words, descriptive terms, person names, title words).  Token
frequencies follow a Zipf-like distribution: a handful of tokens are shared
by a large fraction of the entities (producing the over-sized blocks that
Block Purging/Filtering must remove) while the long tail of rare tokens
produces the small, distinctive blocks the weighting schemes rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..utils.rng import SeedLike, make_rng

#: Frequent, low-information words injected into many profiles; these are the
#: signatures Block Purging is expected to eliminate.
COMMON_WORDS: Tuple[str, ...] = (
    "new", "black", "white", "pro", "plus", "series", "classic", "edition",
    "original", "standard", "premium", "digital", "compact", "ultra",
)

#: Seed words combined with numeric suffixes to make the synthetic vocabularies
#: readable in examples and debug output.
_BRAND_STEMS = (
    "acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell",
    "wonka", "hooli", "dunder", "cyberdyne", "oscorp", "massive", "aperture",
)
_NOUN_STEMS = (
    "phone", "laptop", "camera", "tablet", "drive", "router", "monitor",
    "printer", "speaker", "keyboard", "headset", "charger", "watch", "drone",
)
_TITLE_STEMS = (
    "shadow", "river", "night", "empire", "garden", "winter", "storm",
    "silent", "broken", "golden", "hidden", "burning", "frozen", "crimson",
)
_SURNAME_STEMS = (
    "smith", "garcia", "mueller", "rossi", "tanaka", "kumar", "novak",
    "jensen", "silva", "dubois", "keller", "moreno", "larsen", "petrov",
)


@dataclass(frozen=True)
class Vocabulary:
    """A domain vocabulary with Zipf-distributed token frequencies.

    The cumulative distribution is built once, with the vocabulary: a draw is
    then one ``searchsorted`` of uniform numbers, exactly the arithmetic
    ``Generator.choice(size, count, p=weights)`` performs after validating
    ``weights``, so it consumes the same random numbers and picks the same
    tokens.
    """

    #: domain label ("products", "movies", "bibliographic", "people")
    domain: str
    #: distinctive tokens, ordered from most to least frequent
    tokens: Tuple[str, ...]
    #: Zipf exponent controlling how skewed the token frequencies are
    zipf_exponent: float = 1.2
    #: cumulative Zipf distribution over ``tokens``, ending at exactly 1.0
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a vocabulary needs at least one token")
        ranks = np.arange(1, len(self.tokens) + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, self.zipf_exponent)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)

    def sample_tokens(
        self, rng: np.random.Generator, count: int, with_common: bool = True
    ) -> List[str]:
        """Sample ``count`` tokens following the Zipf-like frequency profile."""
        if count <= 0:
            return []
        indices = self.cdf.searchsorted(rng.random(count), side="right")
        sampled = [self.tokens[index] for index in indices.tolist()]
        if with_common and count >= 2 and rng.random() < 0.5:
            sampled[rng.integers(0, count)] = COMMON_WORDS[
                rng.integers(0, len(COMMON_WORDS))
            ]
        return sampled


def _expand(stems: Sequence[str], size: int, prefix: str) -> Tuple[str, ...]:
    """Build a vocabulary of ``size`` tokens by suffixing the stems."""
    tokens: List[str] = []
    index = 0
    while len(tokens) < size:
        stem = stems[index % len(stems)]
        suffix = index // len(stems)
        tokens.append(stem if suffix == 0 else f"{stem}{prefix}{suffix}")
        index += 1
    return tuple(tokens)


def product_vocabulary(size: int = 3000) -> Vocabulary:
    """Vocabulary for product-matching datasets (AbtBuy, AmazonGP, Walmart)."""
    tokens = _expand(_BRAND_STEMS + _NOUN_STEMS, size, "x")
    return Vocabulary(domain="products", tokens=tokens, zipf_exponent=1.15)


def movie_vocabulary(size: int = 4000) -> Vocabulary:
    """Vocabulary for movie/TV datasets (ImdbTmdb, ImdbTvdb, TmdbTvdb, Movies)."""
    tokens = _expand(_TITLE_STEMS + _SURNAME_STEMS, size, "t")
    return Vocabulary(domain="movies", tokens=tokens, zipf_exponent=1.1)


def bibliographic_vocabulary(size: int = 5000) -> Vocabulary:
    """Vocabulary for bibliographic datasets (DblpAcm, ScholarDblp)."""
    tokens = _expand(_TITLE_STEMS + _SURNAME_STEMS + _NOUN_STEMS, size, "p")
    return Vocabulary(domain="bibliographic", tokens=tokens, zipf_exponent=1.05)


def people_vocabulary(size: int = 4000) -> Vocabulary:
    """Vocabulary for person/customer records (Dirty ER synthetic datasets)."""
    tokens = _expand(_SURNAME_STEMS + _BRAND_STEMS, size, "n")
    return Vocabulary(domain="people", tokens=tokens, zipf_exponent=1.1)


VOCABULARIES = {
    "products": product_vocabulary,
    "movies": movie_vocabulary,
    "bibliographic": bibliographic_vocabulary,
    "people": people_vocabulary,
}


def get_vocabulary(domain: str, size: int = 4000) -> Vocabulary:
    """Return the vocabulary factory output for ``domain``."""
    try:
        return VOCABULARIES[domain](size)
    except KeyError:
        known = ", ".join(sorted(VOCABULARIES))
        raise KeyError(f"unknown vocabulary domain {domain!r}; known: {known}") from None
