"""Property-based checks of the matcher against the brute-force oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import CategorySet, build_matcher, make_lexicon

from oracles import naive_match

# A small vocabulary, so terms of up to 5 tokens share prefixes and suffixes,
# nest in one another and overlap in token streams, and single-token terms
# are often also the first token of a longer one.
VOCAB = ["ataque", "de", "pánico", "miedo", "crisis", "2020"]

term_tokens = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5)
category_sets = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(6)]),
    st.lists(term_tokens.map(" ".join), min_size=1, max_size=6),
    max_size=5,
)
# Tokens no term uses: streams made only of them, or of them and tokens of
# unused terms, share nothing with the matcher's vocabulary.
OUTSIDE = ["nada", "x1"]
token_streams = st.lists(st.sampled_from(VOCAB + OUTSIDE), max_size=40)


@settings(max_examples=500, deadline=None)
@given(category_sets, token_streams, term_tokens, st.data())
def test_matcher_equals_naive_scan(raw, tokens, term, data):
    # A third of the streams end partway through one more term of the set, or
    # with all of it.
    if data.draw(st.integers(0, 2)) == 0:
        raw = {**raw, "tail": [" ".join(term)]}
        tokens = tokens + term[:data.draw(st.integers(1, len(term)))]
    cats = CategorySet(
        name="t", categories={k: make_lexicon(k, v) for k, v in raw.items()}
    )
    plain = {k: sorted(lex.terms) for k, lex in cats.categories.items()}
    assert build_matcher(cats).match(tuple(tokens)) == naive_match(plain, tokens)
