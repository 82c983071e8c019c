"""Property-based checks of the matcher against the brute-force oracle, and
of the prevalence CSV's round trip."""

import csv
from datetime import date, timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import CategorySet, DailyAggregate, build_matcher, make_lexicon
from crisismon.matching import read_prevalence_csv, write_prevalence_csv

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
    m = build_matcher(cats)
    found = {m.category_names[i] for i in m.match_indices(tuple(tokens))}
    assert found == naive_match(plain, tokens)


# Category names that the CSV must quote or escape, beside any other text
# (less NUL, which the csv module of Python 3.10 rejects, and lone surrogates,
# which UTF-8 cannot encode).
names = st.lists(
    st.sampled_from([",", '"', 'di "jo", y\n', "a\r\nb", "pánico", "不安"])
    | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
              min_size=1, max_size=6),
    min_size=1, max_size=5, unique=True,
).map(sorted)
# One day's total: a zero now and then, else any int64 count.
day_totals = st.just(0) | st.integers(0, 2**63 - 1)


@settings(max_examples=100, deadline=None)
@given(names, st.integers(1, 60), st.dates(max_value=date.max - timedelta(days=59)),
       st.data())
def test_prevalence_csv_round_trips(tmp_path_factory, categories, n_days, start, data):
    totals = tuple(data.draw(st.lists(day_totals, min_size=n_days, max_size=n_days)))
    matched = []
    for _ in categories:
        row = data.draw(st.tuples(*(st.integers(0, t) for t in totals)))
        never = data.draw(st.booleans())  # a category that matches nothing
        matched.append(tuple(0 if never else m for m in row))
    agg = DailyAggregate(start=start, categories=tuple(categories), matched=matched,
                         totals=totals, dropped=0)
    # Days between the first and the last that no row lists: they read as
    # missing, with no documents and no matches.
    unlisted = data.draw(st.sets(st.integers(1, n_days - 2)) if n_days > 2 else st.just(set()))
    path = tmp_path_factory.getbasetemp() / "prevalence.csv"
    write_prevalence_csv(path, agg)
    gone = {(start + timedelta(days=i)).isoformat() for i in unlisted}
    with path.open(encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[0] not in gone]
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    back = read_prevalence_csv(path)
    assert (back.start, back.end, back.categories) == (agg.start, agg.end, agg.categories)
    listed = [i not in unlisted for i in range(n_days)]
    assert back.totals == tuple(t if k else 0 for t, k in zip(totals, listed))
    assert back.matched == [tuple(m if k else 0 for m, k in zip(row, listed))
                            for row in matched]
