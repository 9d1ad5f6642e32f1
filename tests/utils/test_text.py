"""Tests for text normalisation and signature extraction."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_tokens
from repro.utils import (
    distinct_qgrams,
    distinct_suffixes,
    distinct_tokens,
    jaccard,
    normalize,
    qgrams,
    suffixes,
    tokens,
)


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize("Apple iPhone-X!") == "apple iphone-x!"

    def test_accent_stripping(self):
        assert normalize("Café Münster") == "cafe munster"

    def test_empty(self):
        assert normalize("") == ""


class TestTokens:
    def test_basic_tokenisation(self):
        assert tokens("Apple iPhone X") == ["apple", "iphone", "x"]

    def test_punctuation_split(self):
        assert tokens("samsung-s20, 128GB") == ["samsung", "s20", "128gb"]

    def test_min_length_filter(self):
        assert tokens("a bb ccc", min_length=2) == ["bb", "ccc"]

    def test_stop_word_removal(self):
        assert tokens("the apple and the orange", remove_stop_words=True) == [
            "apple",
            "orange",
        ]

    def test_distinct_tokens(self):
        assert distinct_tokens("apple apple banana") == {"apple", "banana"}

    def test_same_signature_after_case_and_punctuation(self):
        assert distinct_tokens("iPhone-X") == distinct_tokens("iphone x")


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
    @given(
        text=messy_texts,
        min_length=st.sampled_from((1, 2, 3)),
        remove_stop_words=st.booleans(),
    )
    @example(text="", min_length=1, remove_stop_words=False)
    @example(text="The iPhone-X|S20\x00and\x1fa ½ ｆold ﬁ \u212aİ²", min_length=1, remove_stop_words=True)
    @example(text="a an of\tOF\nÉ é ß 中 🙂", min_length=2, remove_stop_words=True)
    def test_tokens(self, text, min_length, remove_stop_words):
        expected = reference_tokens(text, min_length, remove_stop_words)
        assert tokens(text, min_length, remove_stop_words) == expected
        assert distinct_tokens(text, min_length, remove_stop_words) == set(expected)

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


class TestQGrams:
    def test_trigram_extraction(self):
        assert qgrams("abcd", q=3) == ["abc", "bcd"]

    def test_short_token_kept_whole(self):
        assert qgrams("ab", q=3) == ["ab"]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    def test_distinct_qgrams(self):
        assert distinct_qgrams("aaaa", q=2) == {"aa"}


class TestSuffixes:
    def test_suffix_extraction(self):
        assert suffixes("abcde", min_suffix_length=3) == ["abcde", "bcde", "cde"]

    def test_short_token_kept_whole(self):
        assert suffixes("ab", min_suffix_length=3) == ["ab"]

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            suffixes("abc", min_suffix_length=0)

    def test_distinct_suffixes_over_multiple_tokens(self):
        result = distinct_suffixes("abcd wxyz", min_suffix_length=3)
        assert "bcd" in result and "xyz" in result


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(0.5)

    def test_empty_sets(self):
        assert jaccard(set(), set()) == 0.0
