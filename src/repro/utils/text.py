"""Text normalisation and signature extraction.

Schema-agnostic blocking derives signatures from attribute values: whitespace
tokens for Token Blocking, character q-grams for Q-Grams Blocking and token
suffixes for Suffix-Arrays Blocking.  All functions are deterministic and
pure so blocking output is reproducible.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable, List, Sequence, Set

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")

#: Frequent English/product stop-words excluded from signatures when the
#: caller asks for stop-word removal.  Deliberately small: schema-agnostic
#: blocking relies on Block Purging to drop over-frequent signatures anyway.
STOP_WORDS: Set[str] = {
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in",
    "is", "it", "of", "on", "or", "the", "to", "with",
}


def normalize(text: str) -> str:
    """Lower-case, strip accents and collapse non-alphanumeric characters.

    The normalisation mirrors the preprocessing of the JedAI / SparkER
    implementations: case folding plus punctuation removal, so that
    "iPhone-X" and "iphone x" produce the same tokens.
    """
    if not text:
        return ""
    folded = unicodedata.normalize("NFKD", text)
    ascii_only = folded.encode("ascii", "ignore").decode("ascii")
    return ascii_only.lower()


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
    extracted = _TOKEN_PATTERN.findall(normalize(text))
    result = [token for token in extracted if len(token) >= min_length]
    if remove_stop_words:
        result = [token for token in result if token not in STOP_WORDS]
    return result


def distinct_tokens(
    text: str, min_length: int = 1, remove_stop_words: bool = False
) -> Set[str]:
    """Return the set of distinct tokens of ``text``."""
    return set(tokens(text, min_length=min_length, remove_stop_words=remove_stop_words))


def tokens_of_texts(
    texts: Iterable[str], min_length: int = 1, remove_stop_words: bool = False
) -> List[List[str]]:
    """Batch tokenization: one token list per text, duplicates kept.

    This is the entry point of the array blocking engine, which
    dictionary-encodes the flattened output and deduplicates during block
    assembly — so, unlike :func:`distinct_tokens`, no per-text set is
    built.  Delegates to :func:`tokens`, so the array engine and the object
    chain share one tokenization pipeline by construction.
    """
    return [
        tokens(text, min_length=min_length, remove_stop_words=remove_stop_words)
        for text in texts
    ]


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
