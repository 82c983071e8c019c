"""Category term matching and daily prevalence aggregation.

The matcher is a table compiled from a category set: every term of every
category is a key, a single token or a tuple of normalized tokens, mapped to
the categories holding it. A document matches a category when at least one
of its terms occurs; multiword terms require consecutive tokens; overlapping
and nested terms all count; multiplicity is ignored (three occurrences count
the same as one, since tweet length makes repeat counts a poor intensity
signal). Every token is looked up alone; only at a token that starts a
multiword term are the longer spans, up to that token's longest term, looked
up too. ``Matcher.match(tokens)`` gives a document's category names,
``Matcher.match_indices`` their indices. Most documents share no token with
any term; the matcher keeps the set of tokens that start a term and returns
no match for such a document without a lookup, which is exact because every
match starts with one of them.

Daily aggregation is a single fold over a corpus into a categories × days
count matrix; it never holds the documents, so memory grows with days ×
categories, not with the corpus. A corpus is folded in byte ranges, in
forked workers when more than one is allowed; the ranges' count matrices add
up to the matrix of one pass. A range goes from its raw lines to counts in
one loop: of each checked record (:func:`~crisismon.corpus.records`) it
reads the kind, the day and the text, counts in Python ints and makes one
array of the range's counts. Each category's counts are
a read-only row of that matrix, and all categories share one denominator:
the number of documents seen that day. Days with no documents yield a
missing percentage rather than 0, so downstream smoothing can tell absence
from zero signal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import KIND_RETWEET, Corpus, ParseReport, fold_corpus, preprocess
from .errors import FormatError, cell, read_csv, write_csv
from .lexicon import CategorySet

log = logging.getLogger(__name__)


class Matcher:
    """Term table over token sequences.

    ``_table`` keys each single-token term by its token and each longer term
    by its token tuple; a key maps to the indices of the categories holding
    that term. ``_longest`` maps each token that starts a longer term to the
    length of the longest such term, and ``_vocab`` is every token that
    starts a term. Built deterministically: identical category sets compile
    to identical tables.
    """

    def __init__(self, cats: CategorySet):
        self.category_names: tuple[str, ...] = tuple(sorted(cats.categories))
        table: dict[str | tuple[str, ...], set[int]] = {}
        longest: dict[str, int] = {}
        for ci, name in enumerate(self.category_names):
            for term in cats.categories[name].terms:
                first = term[0]
                if len(term) == 1:
                    table.setdefault(first, set()).add(ci)
                else:
                    table.setdefault(term, set()).add(ci)
                    longest[first] = max(longest.get(first, 0), len(term))
        self._table = {key: frozenset(cis) for key, cis in table.items()}
        self._longest = longest
        self._vocab = frozenset(term[0] for lex in cats.categories.values() for term in lex.terms)

    def __len__(self) -> int:
        return len(self.category_names)

    def match_indices(self, tokens: Sequence[str]) -> set[int]:
        found: set[int] = set()
        if self._vocab.isdisjoint(tokens):
            return found
        table = self._table
        longest = self._longest
        n = len(tokens)
        for i, tok in enumerate(tokens):
            hits = table.get(tok)
            if hits:
                found |= hits
            span = longest.get(tok)
            if span:
                for j in range(i + 2, min(i + span, n) + 1):
                    hits = table.get(tuple(tokens[i:j]))
                    if hits:
                        found |= hits
        return found

    def match(self, tokens: Sequence[str]) -> set[str]:
        return {self.category_names[i] for i in self.match_indices(tokens)}


def build_matcher(cats: CategorySet) -> Matcher:
    return Matcher(cats)


@dataclass(frozen=True)
class DailyPrevalence:
    """One category's matched counts per day and the documents per day."""

    matched: np.ndarray  # int64, one cell per day; a row of the count matrix
    total: np.ndarray  # int64; aggregate_daily shares one array across categories


@dataclass
class DailyAggregate:
    """The daily prevalence table over [start, end]: per-category counts, in
    row order, plus bookkeeping."""

    start: date
    end: date
    prevalence: dict[str, DailyPrevalence]
    dropped: int  # documents outside the configured date range

    def percent(self) -> np.ndarray:
        """Categories × days of 100*matched/total, rows in ``prevalence``
        order; NaN on a day with no documents."""
        matched = np.array([p.matched for p in self.prevalence.values()])
        total = np.array([p.total for p in self.prevalence.values()])
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(total > 0, 100.0 * matched / total, np.nan)


def _count(matcher: Matcher, start: date, n_days: int,
           recs: Iterator[tuple]) -> tuple[np.ndarray, np.ndarray, int]:
    """Matches per category per day, documents per day, and documents dropped,
    over the records of a corpus range, retweets left out; counted in Python
    ints, then one array each."""
    first = start.toordinal()
    matched = [[0] * n_days for _ in range(len(matcher))]
    totals = [0] * n_days
    dropped = 0
    match_indices = matcher.match_indices
    for obj, kind, day in recs:
        if kind == KIND_RETWEET:
            continue
        di = day.toordinal() - first
        if di < 0 or di >= n_days:
            dropped += 1
            continue
        totals[di] += 1
        for ci in match_indices(preprocess(obj["text"])):
            matched[ci][di] += 1
    return (np.array(matched, dtype=np.int64).reshape(len(matcher), n_days),
            np.array(totals, dtype=np.int64), dropped)


def aggregate_daily(
    corpus: Corpus,
    matcher: Matcher,
    start: date,
    end: date,
    workers: int = 1,
    report: ParseReport | None = None,
) -> DailyAggregate:
    """Count matches per category per day over [start, end] inclusive.

    The corpus is parsed, its retweets dropped and the rest tokenized and
    counted range by range, in up to ``workers`` processes (see
    :func:`~crisismon.corpus.fold_corpus`); its parse outcomes land on
    ``report``.
    """
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    n_days = (end - start).days + 1
    fold = partial(_count, matcher, start, n_days)
    matched = np.zeros((len(matcher), n_days), dtype=np.int64)
    totals = np.zeros(n_days, dtype=np.int64)
    dropped = 0
    for part_matched, part_totals, part_dropped in fold_corpus(
            corpus, fold, workers, ParseReport() if report is None else report):
        matched += part_matched
        totals += part_totals
        dropped += part_dropped

    if dropped:
        log.info("aggregate_daily: dropped %d documents outside %s..%s",
                 dropped, start, end)
    # Each category's row is a read-only view of the one matrix, and all of
    # them share the one read-only totals vector.
    matched.flags.writeable = False
    totals.flags.writeable = False
    prevalence = {
        name: DailyPrevalence(matched=matched[ci], total=totals)
        for ci, name in enumerate(matcher.category_names)
    }
    return DailyAggregate(start=start, end=end, prevalence=prevalence, dropped=dropped)


def write_prevalence_csv(path: str | Path, aggregate: DailyAggregate) -> None:
    """Long-format CSV: date, category, matched, total, percent (blank = missing)."""
    n_days = (aggregate.end - aggregate.start).days + 1
    days = [(aggregate.start + timedelta(days=i)).isoformat() for i in range(n_days)]
    write_csv(path, ["date", "category", "matched", "total", "percent"], (
        [d, name, m, t, cell(p)]
        for (name, prev), pct in zip(aggregate.prevalence.items(), aggregate.percent().tolist())
        for d, m, t, p in zip(days, prev.matched.tolist(), prev.total.tolist(), pct)
    ))


def read_prevalence_csv(path: str | Path) -> DailyAggregate:
    """Rebuild the daily counts of a long-format CSV, categories in sorted order.

    Every category spans the first to the last day listed for any category;
    a day with no row for a category has total 0, which reads as missing. A
    file with no rows is a ``ValueError``.
    """
    rows = read_csv(path, ["date", "category", "matched", "total", "percent"], lambda row: (
        date.fromisoformat(row["date"]), row["category"], int(row["matched"]), int(row["total"])
    ))
    by_cat: dict[str, dict[date, tuple[int, int]]] = {}
    for i, (day, cat, matched, total) in enumerate(rows):
        cells = by_cat.setdefault(cat, {})
        if day in cells:
            raise FormatError(f"{path}: line {i + 2}: duplicate {day} {cat}")
        cells[day] = matched, total
    days = {d for cells in by_cat.values() for d in cells}
    if not days:
        raise ValueError(f"{path}: no prevalence rows")
    start, end = min(days), max(days)
    n = (end - start).days + 1
    prevalence: dict[str, DailyPrevalence] = {}
    for cat in sorted(by_cat):
        matched = np.zeros(n, dtype=np.int64)
        total = np.zeros(n, dtype=np.int64)
        for d, (m, t) in by_cat[cat].items():
            i = (d - start).days
            matched[i], total[i] = m, t
        prevalence[cat] = DailyPrevalence(matched=matched, total=total)
    return DailyAggregate(start=start, end=end, prevalence=prevalence, dropped=0)
