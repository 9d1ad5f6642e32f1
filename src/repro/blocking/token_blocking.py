"""Token Blocking.

The paper's evaluation (Section 5.1) extracts the initial block collection
with Token Blocking: a block is created for every distinct token appearing in
the attribute values of the profiles, the only parameter-free
redundancy-positive blocking method.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..datamodel.entity import EntityProfile
from ..utils.text import distinct_tokens, tokens
from .base import BlockingMethod


class TokenBlocking(BlockingMethod):
    """Create one block per distinct attribute-value token.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are ignored (defaults to 1, i.e. keep all).
    remove_stop_words:
        Drop very frequent English stop-words.  The paper relies on Block
        Purging for this effect, so the default is ``False``.
    """

    name = "token-blocking"

    def __init__(self, min_token_length: int = 1, remove_stop_words: bool = False) -> None:
        if min_token_length < 1:
            raise ValueError("min_token_length must be at least 1")
        self.min_token_length = min_token_length
        self.remove_stop_words = remove_stop_words

    def signatures_of(self, profile: EntityProfile) -> Set[str]:
        return distinct_tokens(
            profile.text(),
            min_length=self.min_token_length,
            remove_stop_words=self.remove_stop_words,
        )

    def signature_lists(self, profiles: Iterable[EntityProfile]) -> List[List[str]]:
        return [
            tokens(profile.text(), self.min_token_length, self.remove_stop_words)
            for profile in profiles
        ]
