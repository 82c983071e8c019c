"""Property-based checks of the matcher against the brute-force oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import CategorySet, build_matcher, make_lexicon

from oracles import naive_match

# A small vocabulary with shared prefixes and suffixes, so multiword terms
# overlap in token streams and exercise the automaton's failure links.
VOCAB = ["ataque", "de", "pánico", "miedo", "crisis", "2020"]

terms = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(" ".join)
category_sets = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(6)]),
    st.lists(terms, min_size=1, max_size=6),
    max_size=5,
)
# Tokens no term uses: streams made only of them, or of them and tokens of
# unused terms, share nothing with the matcher's vocabulary.
OUTSIDE = ["nada", "x1"]
token_streams = st.lists(st.sampled_from(VOCAB + OUTSIDE), max_size=40)


@settings(max_examples=300, deadline=None)
@given(category_sets, token_streams)
def test_matcher_equals_naive_scan(raw, tokens):
    cats = CategorySet(
        name="t", categories={k: make_lexicon(k, v) for k, v in raw.items()}
    )
    plain = {k: sorted(lex.terms) for k, lex in cats.categories.items()}
    assert build_matcher(cats).match(tuple(tokens)) == naive_match(plain, tokens)
