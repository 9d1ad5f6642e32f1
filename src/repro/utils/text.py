"""The tokeniser of Token Blocking.

Schema-agnostic Token Blocking derives its signatures from attribute values:
the alphanumeric tokens of a profile's text, case-folded and accent-stripped
as the JedAI / SparkER preprocessing does, so that "iPhone-X" and
"iphone x" produce the same tokens.  The function is deterministic and pure
so blocking output is reproducible.

A token is a maximal run of ``[a-z0-9]`` in the text after an NFKD fold, an
ASCII encode that drops what does not fold, and lower-casing.  After the
encode every character is one byte, so :func:`tokens` finds the runs with one
256-entry ``bytes.translate`` table (``A-Z`` lower-cased, ``[a-z0-9]`` kept,
every other byte blanked) and a ``split()`` — the same tokens as
``re.findall("[a-z0-9]+", folded.lower())`` for every input: on ASCII text
``str.lower()`` touches only ``A-Z``, and the bytes the table blanks are
exactly the complement of the character class.  The regular expression is
the oracle in ``tests/reference.py``.
"""

from __future__ import annotations

import string
import unicodedata
from typing import List

_TOKEN_BYTES = (string.ascii_lowercase + string.digits).encode("ascii")
#: byte -> byte: upper case folded, ``[a-z0-9]`` kept, everything else a space
_TOKEN_TABLE = bytes(
    byte if byte in _TOKEN_BYTES else ord(" ") for byte in bytes(range(256)).lower()
)


def tokens(text: str) -> List[str]:
    """The alphanumeric tokens of ``text``, in order, repeats included.

    ``text`` is a raw attribute value or a profile's concatenated text
    (:meth:`~repro.datamodel.EntityProfile.text`).
    """
    if not text:
        return []
    folded = unicodedata.normalize("NFKD", text).encode("ascii", "ignore")
    return folded.translate(_TOKEN_TABLE).decode("ascii").split()
