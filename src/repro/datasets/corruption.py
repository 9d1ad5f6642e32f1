"""Value corruption for duplicate generation.

Duplicate profiles in the benchmark corpora are never exact copies: values
carry typos, dropped tokens, re-orderings, abbreviations and missing
attributes.  The corruption level is the main knob differentiating the
"easy" datasets (DblpAcm, ScholarDblp — duplicates share many blocks) from
the "hard" ones (AbtBuy, AmazonGP — many duplicates share one block or none),
which is exactly the distinction Figures 15/16 of the paper draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class CorruptionConfig:
    """Controls how aggressively duplicate values are corrupted.

    Parameters
    ----------
    token_typo_probability:
        Chance of introducing a character-level typo in a token (which changes
        its blocking signature).
    token_drop_probability:
        Chance of dropping a token entirely.
    token_swap_probability:
        Chance of replacing a token with an unrelated one.
    attribute_missing_probability:
        Chance of blanking a whole attribute value in the duplicate.
    """

    token_typo_probability: float = 0.1
    token_drop_probability: float = 0.1
    token_swap_probability: float = 0.05
    attribute_missing_probability: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "token_typo_probability",
            "token_drop_probability",
            "token_swap_probability",
            "attribute_missing_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def clean(cls) -> "CorruptionConfig":
        """Light corruption — duplicates share many signatures (DblpAcm-like)."""
        return cls(0.03, 0.03, 0.01, 0.02)

    @classmethod
    def moderate(cls) -> "CorruptionConfig":
        """Medium corruption (movie datasets)."""
        return cls(0.12, 0.15, 0.05, 0.10)

    @classmethod
    def noisy(cls) -> "CorruptionConfig":
        """Heavy corruption — many duplicates share a single block (AbtBuy-like)."""
        return cls(0.25, 0.35, 0.12, 0.25)


def introduce_typo(token: str, rng: np.random.Generator) -> str:
    """Return ``token`` with one random character substituted/inserted/deleted."""
    if not token:
        return token
    operation = rng.integers(0, 3)
    position = int(rng.integers(0, len(token)))
    replacement = _ALPHABET[rng.integers(0, len(_ALPHABET))]
    if operation == 0:  # substitute
        return token[:position] + replacement + token[position + 1 :]
    if operation == 1:  # insert
        return token[:position] + replacement + token[position:]
    if len(token) > 1:  # delete
        return token[:position] + token[position + 1 :]
    return token


def corrupt_tokens(
    tokens: Sequence[str],
    config: CorruptionConfig,
    rng: np.random.Generator,
    replacement_pool: Sequence[str] = (),
) -> List[str]:
    """Apply token-level corruption to a token sequence."""
    corrupted: List[str] = []
    for token in tokens:
        roll = rng.random()
        if roll < config.token_drop_probability:
            continue
        if roll < config.token_drop_probability + config.token_swap_probability and replacement_pool:
            corrupted.append(replacement_pool[rng.integers(0, len(replacement_pool))])
            continue
        if rng.random() < config.token_typo_probability:
            corrupted.append(introduce_typo(token, rng))
        else:
            corrupted.append(token)
    if not corrupted and tokens:
        # A duplicate must keep at least one token, otherwise it degenerates
        # into an empty profile that no blocking method can place anywhere.
        corrupted.append(tokens[int(rng.integers(0, len(tokens)))])
    return corrupted


def corrupt_attributes(
    attributes: Dict[str, str],
    config: CorruptionConfig,
    rng: np.random.Generator,
    replacement_pool: Sequence[str] = (),
) -> Dict[str, str]:
    """Corrupt a whole profile: per-attribute token corruption plus missing values.

    At least one attribute always survives so the duplicate remains blockable.
    """
    corrupted: Dict[str, str] = {}
    names = list(attributes)
    for name in names:
        value = attributes[name]
        if not value:
            corrupted[name] = value
            continue
        if rng.random() < config.attribute_missing_probability:
            corrupted[name] = ""
            continue
        tokens = value.split()
        corrupted[name] = " ".join(
            corrupt_tokens(tokens, config, rng, replacement_pool)
        )
    if all(not value for value in corrupted.values()) and names:
        survivor = names[int(rng.integers(0, len(names)))]
        corrupted[survivor] = attributes[survivor]
    return corrupted
