"""Text normalisation and signature extraction.

Schema-agnostic blocking derives signatures from attribute values: whitespace
tokens for Token Blocking, character q-grams for Q-Grams Blocking and token
suffixes for Suffix-Arrays Blocking.  All functions are deterministic and
pure so blocking output is reproducible.

A token is a maximal run of ``[a-z0-9]`` in the normalised text.  After the
NFKD fold and the ASCII encode every character is one byte, so
:func:`tokens` finds the runs with one 256-entry ``bytes.translate`` table
(``A-Z`` lower-cased, ``[a-z0-9]`` kept, every other byte blanked) and a
``split()`` — the same tokens as ``re.findall("[a-z0-9]+", normalize(text))``
for every input: on ASCII text ``str.lower()`` touches only ``A-Z``, and the
bytes the table blanks are exactly the complement of the character class.
The regular expression is the oracle in ``tests/reference.py``.
"""

from __future__ import annotations

import string
import unicodedata
from typing import Iterable, List, Set

_TOKEN_BYTES = (string.ascii_lowercase + string.digits).encode("ascii")
#: byte -> byte: upper case folded, ``[a-z0-9]`` kept, everything else a space
_TOKEN_TABLE = bytes(
    byte if byte in _TOKEN_BYTES else ord(" ") for byte in bytes(range(256)).lower()
)

#: Frequent English/product stop-words excluded from signatures when the
#: caller asks for stop-word removal.  Deliberately small: schema-agnostic
#: blocking relies on Block Purging to drop over-frequent signatures anyway.
STOP_WORDS: Set[str] = {
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in",
    "is", "it", "of", "on", "or", "the", "to", "with",
}


def _ascii_fold(text: str) -> bytes:
    """The ASCII bytes left of ``text`` after compatibility decomposition."""
    if not text:
        return b""
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore")


def normalize(text: str) -> str:
    """Lower-case, strip accents and collapse non-alphanumeric characters.

    The normalisation mirrors the preprocessing of the JedAI / SparkER
    implementations: case folding plus punctuation removal, so that
    "iPhone-X" and "iphone x" produce the same tokens.
    """
    return _ascii_fold(text).decode("ascii").lower()


def tokens(text: str, min_length: int = 1, remove_stop_words: bool = False) -> List[str]:
    """Extract alphanumeric tokens from ``text`` after normalisation.

    Parameters
    ----------
    text:
        Raw attribute value or concatenated profile text.
    min_length:
        Tokens shorter than this are discarded (noise such as single letters).
    remove_stop_words:
        Drop tokens in :data:`STOP_WORDS`.
    """
    result = _ascii_fold(text).translate(_TOKEN_TABLE).decode("ascii").split()
    if min_length > 1:
        result = [token for token in result if len(token) >= min_length]
    if remove_stop_words:
        result = [token for token in result if token not in STOP_WORDS]
    return result


def distinct_tokens(
    text: str, min_length: int = 1, remove_stop_words: bool = False
) -> Set[str]:
    """Return the set of distinct tokens of ``text``."""
    return set(tokens(text, min_length=min_length, remove_stop_words=remove_stop_words))


def qgrams(text: str, q: int = 3) -> List[str]:
    """Return the character q-grams of every token of ``text``.

    Tokens shorter than ``q`` contribute themselves as a single signature, so
    short but distinctive values (e.g. "s20") are not lost.
    """
    if q < 1:
        raise ValueError("q must be positive")
    grams: List[str] = []
    for token in tokens(text):
        if len(token) <= q:
            grams.append(token)
        else:
            grams.extend(token[i : i + q] for i in range(len(token) - q + 1))
    return grams


def distinct_qgrams(text: str, q: int = 3) -> Set[str]:
    """Return the set of distinct q-grams of ``text``."""
    return set(qgrams(text, q=q))


def suffixes(text: str, min_suffix_length: int = 3) -> List[str]:
    """Return the token suffixes of ``text`` (Suffix-Arrays Blocking).

    Every suffix of length at least ``min_suffix_length`` of every token is a
    signature; tokens shorter than the minimum contribute themselves.
    """
    if min_suffix_length < 1:
        raise ValueError("min_suffix_length must be positive")
    result: List[str] = []
    for token in tokens(text):
        if len(token) <= min_suffix_length:
            result.append(token)
        else:
            result.extend(
                token[start:] for start in range(0, len(token) - min_suffix_length + 1)
            )
    return result


def distinct_suffixes(text: str, min_suffix_length: int = 3) -> Set[str]:
    """Return the set of distinct suffixes of ``text``."""
    return set(suffixes(text, min_suffix_length=min_suffix_length))


def jaccard(first: Iterable[str], second: Iterable[str]) -> float:
    """Jaccard similarity of two signature collections (as sets)."""
    set_first, set_second = set(first), set(second)
    if not set_first and not set_second:
        return 0.0
    union = len(set_first | set_second)
    if union == 0:
        return 0.0
    return len(set_first & set_second) / union
