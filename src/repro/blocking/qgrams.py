"""Q-Grams Blocking.

A redundancy-positive blocking method that creates one block per distinct
character q-gram of the attribute-value tokens.  More resilient to typos than
Token Blocking at the cost of larger, noisier blocks.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..datamodel.entity import EntityProfile
from ..utils.text import distinct_qgrams, qgrams
from .base import BlockingMethod


class QGramsBlocking(BlockingMethod):
    """Create one block per distinct character q-gram.

    Parameters
    ----------
    q:
        The q-gram length (default 3, the standard trigram setting).
    """

    name = "qgrams-blocking"

    def __init__(self, q: int = 3) -> None:
        if q < 1:
            raise ValueError("q must be at least 1")
        self.q = q

    def signatures_of(self, profile: EntityProfile) -> Set[str]:
        return distinct_qgrams(profile.text(), q=self.q)

    def signature_lists(self, profiles: Iterable[EntityProfile]) -> List[List[str]]:
        return [qgrams(profile.text(), q=self.q) for profile in profiles]
