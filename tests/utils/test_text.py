"""Tests for the tokeniser of Token Blocking."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_tokens
from repro.utils import tokens

pytestmark = pytest.mark.equivalence


class TestTokens:
    def test_basic_tokenisation(self):
        assert tokens("Apple iPhone X") == ["apple", "iphone", "x"]

    def test_punctuation_split(self):
        assert tokens("samsung-s20, 128GB") == ["samsung", "s20", "128gb"]

    def test_accent_stripping(self):
        assert tokens("Café Münster") == ["cafe", "munster"]

    def test_repeats_are_kept(self):
        assert tokens("apple apple banana") == ["apple", "apple", "banana"]

    def test_empty(self):
        assert tokens("") == []

    def test_same_signature_after_case_and_punctuation(self):
        assert tokens("iPhone-X") == tokens("iphone x")


#: characters chosen to bite: case, digits, ASCII punctuation and control
#: characters, accented Latin, compatibility forms NFKD expands *into* ASCII
#: (``½`` -> ``1⁄2``, fullwidth ``ｆ``, ``²``, the ``ﬁ`` ligature, KELVIN SIGN,
#: dotted capital ``İ``), and scripts / emoji the ASCII encode drops whole
MESSY_ALPHABET = (
    "aZz09 Qk"
    "\t\n\r\x00\x0b\x1c\x1f\x7f|-_.,;:!?'\"/\\()[]{}<>@#$%^&*+=~`"
    "éüßñøÅ"
    "½ｆ²ﬁ\u212aİ\u2044\u0307\u00a0\u2003"
    "жλ中あ한🙂"
)

messy_texts = st.one_of(st.text(), st.text(alphabet=MESSY_ALPHABET, max_size=40))


class TestTokensEqualTheRegexOracle:
    """``tokens`` (byte table + ``split``) against ``reference_tokens`` (regex)."""

    @settings(max_examples=300, deadline=None)
    @given(text=messy_texts)
    @example(text="")
    @example(text="The iPhone-X|S20\x00and\x1fa ½ ｆold ﬁ \u212aİ²")
    @example(text="a an of\tOF\nÉ é ß 中 🙂")
    def test_tokens(self, text):
        assert tokens(text) == reference_tokens(text)

    def test_every_code_point_between_two_letters(self):
        """Planes 0-2 exhaustively (the mathematical alphanumerics of plane 1
        decompose into ASCII too): each character glues, splits or joins the
        run around it exactly as the regex says."""
        disagreeing = [
            hex(point)
            for point in range(0x30000)
            if tokens(f"a{chr(point)}B") != reference_tokens(f"a{chr(point)}B")
        ]
        assert not disagreeing

    def test_the_alphabet_bites(self):
        """Every class of the alphabet changes the text the way the docstring says."""
        assert tokens("½ ｆ ² ﬁ \u212a İ") == ["12", "f", "2", "fi", "k", "i"]
        assert tokens("é ü ß ñ") == ["e", "u", "n"]
        assert tokens("a\tb\nc\x00d\x1fe|f") == ["a", "b", "c", "d", "e", "f"]
        assert tokens("жλ中あ한🙂") == []
        # a dropped character glues its neighbours, exactly like the regex path
        assert tokens("ab中cd") == reference_tokens("ab中cd") == ["abcd"]

