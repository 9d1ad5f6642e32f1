"""Standard (attribute-based) Blocking.

The classic schema-*based* baseline: entities are grouped by the exact value
(or the tokens) of one or more chosen attributes.  It is not used by the
paper's pipeline — which is deliberately schema-agnostic — but is provided as
the natural comparison point and for applications (such as the motivating
customer-database deduplication) where a trustworthy blocking key exists.
"""

from __future__ import annotations

from typing import Sequence, Set

from ..datamodel.entity import EntityProfile
from ..utils.text import distinct_tokens, normalize
from .base import BlockingMethod


class StandardBlocking(BlockingMethod):
    """Group entities by the values of selected attributes.

    Parameters
    ----------
    key_attributes:
        The attribute names used as blocking keys.
    tokenize:
        When ``True`` every token of the key attributes becomes a signature;
        when ``False`` the whole normalised value is a single signature.
    """

    name = "standard-blocking"

    def __init__(self, key_attributes: Sequence[str], tokenize: bool = False) -> None:
        keys = list(key_attributes)
        if not keys:
            raise ValueError("at least one key attribute is required")
        self.key_attributes = keys
        self.tokenize = tokenize

    def signatures_of(self, profile: EntityProfile) -> Set[str]:
        signatures: Set[str] = set()
        for attribute in self.key_attributes:
            value = profile.attribute(attribute)
            if not value:
                continue
            if self.tokenize:
                signatures.update(
                    f"{attribute}:{token}" for token in distinct_tokens(value)
                )
            else:
                normalised = normalize(value).strip()
                if normalised:
                    signatures.add(f"{attribute}:{normalised}")
        return signatures
