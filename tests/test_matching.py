import random
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from crisismon import (CategorySet, Corpus, aggregate_daily, build_matcher,
                       make_lexicon)
from crisismon.errors import FormatError
from crisismon.matching import DailyAggregate, read_prevalence_csv, write_prevalence_csv

from oracles import naive_aggregate, naive_match
from synth import write_docs

START = date(2020, 3, 1)


def _cats(**kwargs) -> CategorySet:
    return CategorySet(
        name="t", categories={k: make_lexicon(k, v) for k, v in kwargs.items()}
    )


def _doc(day_offset, tokens) -> tuple[date, str]:
    return START + timedelta(days=day_offset), " ".join(tokens)


def _aggregate(tmp_path, docs, matcher, start, end, name="c.jsonl"):
    """aggregate_daily over ``(day, text)`` documents written as a corpus file."""
    return aggregate_daily(Corpus((write_docs(tmp_path / name, docs),)), matcher, start, end)


def _names(m, tokens) -> set[str]:
    """The categories ``m`` finds in ``tokens``, by the indices that the fold counts."""
    return {m.category_names[i] for i in m.match_indices(tokens)}


class TestMatcher:
    def test_empty_category_set_matches_nothing(self):
        m = build_matcher(CategorySet(name="empty"))
        assert _names(m, ("hola", "mundo")) == set()

    def test_single_word_category(self):
        m = build_matcher(_cats(sadness=["triste"]))
        assert _names(m, ["me", "siento", "triste"]) == {"sadness"}
        assert _names(m, ["me", "siento", "bien"]) == set()

    def test_phrase_requires_consecutive_tokens(self):
        m = build_matcher(_cats(panic=["panic attack"]))
        assert _names(m, ["panic", "attack", "hoy"]) == {"panic"}
        assert _names(m, ["panic", "y", "attack"]) == set()

    def test_multiplicity_is_ignored(self):
        m = build_matcher(_cats(sadness=["triste"]))
        once = _names(m, ["triste"])
        thrice = _names(m, ["triste", "triste", "triste"])
        assert once == thrice == {"sadness"}

    def test_empty_doc(self):
        m = build_matcher(_cats(sadness=["triste"]))
        assert _names(m, []) == set()

    def test_rebuild_is_deterministic(self):
        cats = _cats(a=["uno", "dos tres"], b=["tres", "cuatro cinco seis"])
        m1, m2 = build_matcher(cats), build_matcher(cats)
        assert m1.category_names == m2.category_names
        assert m1._table == m2._table == {
            "uno": {0}, ("dos", "tres"): {0}, "tres": {1}, ("cuatro", "cinco", "seis"): {1},
        }
        assert m1._longest == m2._longest == {"dos": 2, "cuatro": 3}

    def test_random_categories_equal_naive_scan(self):
        rng = random.Random(31)
        vocab = [f"tok{chr(97 + i)}{chr(97 + j)}" for i in range(10) for j in range(10)]
        for _ in range(30):
            raw = {}
            for c in range(rng.randint(2, 8)):
                terms = []
                for _ in range(rng.randint(1, 25)):
                    span = rng.choice([1] * 9 + [2, 3])
                    terms.append(" ".join(rng.choice(vocab) for _ in range(span)))
                raw[f"c{c}"] = terms
            cats = _cats(**raw)
            m = build_matcher(cats)
            plain = {k: sorted(lex.terms) for k, lex in cats.categories.items()}
            for _ in range(30):
                toks = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
                assert _names(m, tuple(toks)) == naive_match(plain, toks)


class TestAggregateDaily:
    def test_one_day_arithmetic(self, tmp_path):
        m = build_matcher(_cats(C=["hit"]))
        docs = [
            _doc(0, ["hit"]),
            _doc(0, ["miss"]),
            _doc(0, ["nada"]),
            _doc(0, ["otra"]),
        ]
        agg = _aggregate(tmp_path, docs, m, START, START)
        assert (agg.start, agg.end, agg.categories) == (START, START, ("C",))
        assert (agg.matched, agg.totals) == ([(1,)], (4,))
        assert agg.percent() == [[25.0]]

    def test_day_without_docs_is_missing(self, tmp_path):
        m = build_matcher(_cats(C=["hit"]))
        docs = [_doc(0, ["hit"]), _doc(2, ["hit"])]
        agg = _aggregate(tmp_path, docs, m, START, START + timedelta(days=2))
        assert (agg.matched[0][1], agg.totals[1]) == (0, 0)
        assert np.isnan(agg.percent()[0][1])

    def test_reversed_range_is_an_error(self):
        m = build_matcher(_cats(C=["x"]))
        with pytest.raises(ValueError):
            aggregate_daily(Corpus(()), m, START, START - timedelta(days=1))

    def test_merge_adds_a_later_part_and_rebuilds_the_arrays(self):
        agg = DailyAggregate(START, ("A", "B"), [(1, 0), (0, 2)], (3, 4), 1)
        assert agg.prevalence["B"].matched.tolist() == [0, 2]
        agg = agg.merge(DailyAggregate(START, ("A", "B"), [(2, 1), (1, 1)], (2, 5), 2))
        assert (agg.matched, agg.totals, agg.dropped) == ([(3, 1), (1, 3)], (5, 9), 3)
        assert agg.prevalence["B"].matched.tolist() == [1, 3]
        assert agg.prevalence["A"].total.tolist() == [5, 9]

    def test_out_of_range_docs_dropped_with_count(self, tmp_path):
        m = build_matcher(_cats(C=["x"]))
        docs = [_doc(-1, ["x"]), _doc(0, ["x"]), _doc(99, ["x"])]
        agg = _aggregate(tmp_path, docs, m, START, START + timedelta(days=1))
        assert agg.dropped == 2
        assert (agg.matched, agg.totals) == ([(1, 0)], (1, 0))

    def test_same_denominator_for_all_categories(self, tmp_path):
        m = build_matcher(_cats(A=["a"], B=["b"]))
        docs = [_doc(0, ["a"]), _doc(0, ["b"]), _doc(0, ["c"])]
        agg = _aggregate(tmp_path, docs, m, START, START)
        # one tuple of day totals, the denominator of every category; no row can change
        assert agg.totals == (3,)
        for row in agg.matched + [agg.totals]:
            with pytest.raises(TypeError):
                row[0] = 0
        # the arrays built on demand for library callers are read-only, and
        # every category shares one total array
        prevalence = agg.prevalence
        a = prevalence["A"]
        assert a.total.tolist() == [3]
        assert a.total is prevalence["B"].total
        assert not (a.total.flags.writeable or a.matched.flags.writeable)

    def _random_corpus(self, seed, n_days=30, docs_per_day=25):
        rng = random.Random(seed)
        vocab = [f"v{chr(97 + i)}" for i in range(20)]
        raw = {
            "alpha": ["va", "vb vc"],
            "beta": ["vd"],
            "gamma": ["ve", "vf", "vg vh vi"],
        }
        docs = []
        for d in range(n_days):
            for _ in range(rng.randint(0, docs_per_day)):
                docs.append(_doc(d, [rng.choice(vocab) for _ in range(rng.randint(1, 12))]))
        return raw, docs, n_days

    def test_thirty_day_corpus_equals_naive_two_pass(self, tmp_path):
        raw, docs, n_days = self._random_corpus(37)
        cats = _cats(**raw)
        m = build_matcher(cats)
        end = START + timedelta(days=n_days - 1)
        agg = _aggregate(tmp_path, docs, m, START, end)
        plain = {k: sorted(lex.terms) for k, lex in cats.categories.items()}
        matched, totals, dropped = naive_aggregate(
            [(day, text.split()) for day, text in docs], plain, START, end
        )
        assert dropped == agg.dropped == 0
        assert agg.categories == m.category_names
        for name, m_row, row in zip(agg.categories, agg.matched, agg.percent()):
            cols = zip(m_row, agg.totals, row)
            for i, (m_count, t_count, pct) in enumerate(cols):
                day = START + timedelta(days=i)
                assert m_count == matched[name][day]
                assert t_count == totals[day]
                assert 0 <= m_count <= t_count
                if t_count:
                    assert pct == pytest.approx(100.0 * m_count / t_count)
                    assert 0.0 <= pct <= 100.0
                else:
                    assert np.isnan(pct)

    def test_invariant_under_doc_permutation(self, tmp_path):
        raw, docs, n_days = self._random_corpus(41)
        m = build_matcher(_cats(**raw))
        end = START + timedelta(days=n_days - 1)
        a = _aggregate(tmp_path, docs, m, START, end)
        shuffled = docs[:]
        random.Random(1).shuffle(shuffled)
        b = _aggregate(tmp_path, shuffled, m, START, end, name="shuffled.jsonl")
        assert (a.categories, a.matched, a.totals) == (b.categories, b.matched, b.totals)

    def test_fold_releases_each_doc_before_drawing_the_next(self, tmp_path):
        # 3 MB of corpus, mostly blanks that cost the tokenizer little: a fold
        # that held its records would hold all of it.
        m = build_matcher(_cats(C=["hit"]))
        docs = [_doc(i % 3, ["hit" if i % 2 else "miss", " " * 2000]) for i in range(1500)]
        corpus = Corpus((write_docs(tmp_path / "c.jsonl", docs),))
        assert (tmp_path / "c.jsonl").stat().st_size > 3_000_000
        tracemalloc.start()
        try:
            agg = aggregate_daily(corpus, m, START, START + timedelta(days=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert sum(agg.totals) == 1500
        assert sum(agg.matched[0]) == 750


class TestPrevalenceCsv:
    def test_a_span_of_a_century_is_read_and_a_longer_one_is_not(self, tmp_path):
        path = tmp_path / "prev.csv"

        def read_span(days):
            last = START + timedelta(days=days - 1)
            path.write_text("date,category,matched,total,percent\n"
                            f"{START},a,1,2,50.0\n{last},a,1,4,25.0\n")
            return read_prevalence_csv(path)

        assert len(read_span(36_525).totals) == 36_525
        with pytest.raises(FormatError, match="2020-03-01..2120-03-02 spans 36526 days"):
            read_span(36_526)

    def test_round_trip_preserves_percentages(self, tmp_path):
        m = build_matcher(_cats(A=["a"], B=["b"]))
        docs = [_doc(0, ["a"]), _doc(0, ["x"]), _doc(2, ["b"])]
        agg = _aggregate(tmp_path, docs, m, START, START + timedelta(days=2))
        path = tmp_path / "prev.csv"
        write_prevalence_csv(path, agg)
        back = read_prevalence_csv(path)
        assert isinstance(back, DailyAggregate)
        assert (back.start, back.end, back.dropped) == (agg.start, agg.end, 0)
        assert back.categories == ("A", "B")
        assert back.matched[0] == (1, 0, 0)
        assert back.totals == (2, 0, 1)
        pct = back.percent()
        assert pct[0][0] == 50.0
        assert np.isnan(pct[0][1])  # empty day round-trips as missing
        assert pct[0][2] == 0.0
        assert np.array_equal(pct, agg.percent(), equal_nan=True)
