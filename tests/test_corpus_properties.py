"""Property-based check of the tokenizer's fast paths against the oracle."""

import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import preprocess

from oracles import ref_preprocess

ASCII = string.ascii_letters + string.digits + string.punctuation + " "
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


@settings(max_examples=400, deadline=None)
@given(st.one_of(ascii_texts, mixed_texts))
def test_preprocess_equals_unguarded_pipeline(text):
    assert preprocess(text) == ref_preprocess(text)
