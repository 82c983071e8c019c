"""Property-based check of the tokenizer's fast paths against the oracle."""

import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import preprocess

from oracles import ref_preprocess

# Every ASCII code point, controls such as \t, \x0b, \x1c-\x1f, \x00 and
# \x7f included; and those that are neither a letter nor a digit.
ASCII = "".join(map(chr, range(128)))
SEPARATORS = "".join(ch for ch in ASCII if not ch.isalnum())
# Pieces that trigger a substitution, and pieces that leave the ASCII path:
# accents, a fullwidth letter, a ligature, a letter whose lowercase grows a
# combining mark, a superscript and an Arabic-Indic digit, a combining acute
# accent and an emoji.
TRIGGERS = ["://", "www.", "@", "#", "_"]
NON_ASCII = ["á", "Ñ", "ｈ", "ﬁ", "İ", "²", "٣", "\u0301", "😷"]

ascii_runs = st.text(alphabet=ASCII, max_size=6)
pieces = st.one_of(ascii_runs, st.sampled_from(TRIGGERS))
ascii_texts = st.lists(pieces, max_size=12).map("".join)
mixed_texts = st.lists(
    st.one_of(pieces, st.sampled_from(NON_ASCII)), max_size=12
).map("".join)
# Texts with no digit, which take the translate-table path, and runs where
# letters meet digits, which must not.
letter_texts = st.lists(
    st.one_of(st.text(alphabet=string.ascii_letters, min_size=1, max_size=6),
              st.text(alphabet=SEPARATORS, min_size=1, max_size=3)), max_size=12
).map("".join)
boundary_texts = st.lists(
    st.one_of(st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=6),
              st.sampled_from(SEPARATORS)), max_size=8
).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(ascii_texts, mixed_texts, letter_texts, boundary_texts))
def test_preprocess_equals_unguarded_pipeline(text):
    assert preprocess(text) == ref_preprocess(text)
