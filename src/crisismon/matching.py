"""Category term matching and daily prevalence aggregation.

The matcher is a table compiled from a category set: every term of every
category is a key, a single token or a tuple of normalized tokens, mapped to
the categories holding it. A document matches a category when at least one
of its terms occurs; multiword terms require consecutive tokens; overlapping
and nested terms all count; multiplicity is ignored (three occurrences count
the same as one, since tweet length makes repeat counts a poor intensity
signal). Every token is looked up alone; only at a token that starts a
multiword term are the longer spans, up to that token's longest term, looked
up too. ``Matcher.match_indices(tokens)`` gives a document's categories
as indices into ``category_names``. Most documents share no token with any
term; the matcher keeps the set of tokens that start a term and returns no
match for such a document without a lookup, which is exact because every
match starts with one of them.

Daily aggregation is a single fold over a corpus into a categories × days
count matrix; it never holds the documents, so memory grows with days ×
categories, not with the corpus. A corpus is folded in byte ranges, in
forked workers when more than one is allowed. Each range's counts are a
``DailyAggregate``, and ``DailyAggregate.merge`` returns the sum of two
without changing either, so the ranges' counts summed in file order are the
counts of one pass. A range goes from its raw lines to counts in one loop:
of each checked record (:func:`~crisismon.corpus.records`) it reads
the kind, the day and the text, and counts in Python ints. The counts stay
Python ints, in tuples, and the percentages are Python floats, so matching
never loads NumPy. All categories share one denominator: the number
of documents seen that day. Days with no documents yield a missing
percentage rather than 0, so downstream smoothing can tell absence from zero
signal.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from functools import partial
from operator import add
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .corpus import KIND_RETWEET, Corpus, ParseReport, fold_corpus, preprocess
from .errors import FormatError, cell, iso_date, read_csv, write_csv
from .lexicon import CategorySet


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


def build_matcher(cats: CategorySet) -> Matcher:
    return Matcher(cats)


class DailyPrevalence(NamedTuple):
    """One category's matched counts per day and the documents per day."""

    matched: object  # a read-only int64 NumPy array, one cell per day
    total: object  # the same, documents per day


class DailyAggregate(NamedTuple):
    """The daily counts from ``start`` on: one row of days per category, in
    the order of ``categories``, and one row of the documents seen each day,
    the denominator of every category, plus bookkeeping.

    Rows are tuples, so they cannot be changed in place; ``end`` is the day
    of the rows' last cell.
    """

    start: date
    categories: tuple[str, ...]
    matched: list[tuple[int, ...]]  # categories × days
    totals: tuple[int, ...]  # documents per day
    dropped: int  # documents outside the configured date range

    @property
    def end(self) -> date:
        return self.start + timedelta(days=len(self.totals) - 1)

    def merge(self, later: DailyAggregate) -> DailyAggregate:
        """These counts plus those of a later part of the corpus, over the same days."""
        return self._replace(matched=[tuple(map(add, row, part))
                                      for row, part in zip(self.matched, later.matched)],
                             totals=tuple(map(add, self.totals, later.totals)),
                             dropped=self.dropped + later.dropped)

    def percent(self) -> list[list[float]]:
        """Categories × days of 100*matched/total; NaN on a day with no documents."""
        totals = self.totals
        return [[100.0 * m / t if t > 0 else math.nan for m, t in zip(row, totals)]
                for row in self.matched]

    @property
    def prevalence(self) -> dict[str, DailyPrevalence]:
        """Each category's counts as read-only int64 arrays, built anew on each
        read; every category shares one ``total`` array.

        For library callers that want arrays; it loads NumPy, which nothing
        else in ``stats``, ``analyze`` or ``render`` does.
        """
        import numpy as np

        total = np.array(self.totals, dtype=np.int64)
        rows = [np.array(matched, dtype=np.int64) for matched in self.matched]
        for row in [total, *rows]:
            row.flags.writeable = False
        return {name: DailyPrevalence(row, total) for name, row in zip(self.categories, rows)}


def _count(matcher: Matcher, start: date, n_days: int,
           recs: Iterator[tuple]) -> DailyAggregate:
    """The daily counts of the records of a corpus range, retweets left out."""
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
    return DailyAggregate(start, matcher.category_names, [tuple(row) for row in matched],
                          tuple(totals), dropped)


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
    counted range by range, in up to ``workers`` processes, and the ranges'
    counts merged (see :func:`~crisismon.corpus.fold_corpus`); its parse
    outcomes land on ``report``.
    """
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    fold = partial(_count, matcher, start, (end - start).days + 1)
    return fold_corpus(corpus, fold, workers, ParseReport() if report is None else report)


def write_prevalence_csv(path: str | Path, aggregate: DailyAggregate) -> None:
    """Long-format CSV: date, category, matched, total, percent (blank = missing)."""
    totals = aggregate.totals
    days = [(aggregate.start + timedelta(days=i)).isoformat() for i in range(len(totals))]
    write_csv(path, ["date", "category", "matched", "total", "percent"], (
        [d, name, m, t, cell(p)]
        for name, matched, pct in zip(aggregate.categories, aggregate.matched,
                                      aggregate.percent())
        for d, m, t, p in zip(days, matched, totals, pct)
    ))


def _read_count(row: dict[str, str], key: str) -> int:
    text = row[key]
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{key} must be plain digits, got {text!r}")
    # Checked before ``int``, which refuses more than 4,300 digits on its own terms.
    if len(text) > 19 or (n := int(text)) >= 2**63:
        raise ValueError(f"{key} outside the int64 range")
    return n


def _counts(row: dict[str, str]) -> tuple[int, int]:
    matched, total = _read_count(row, "matched"), _read_count(row, "total")
    if matched > total:
        raise ValueError(f"matched {matched} above total {total}")
    return matched, total


#: The most days that counts may span, a century, whether read from a
#: prevalence CSV or configured as a date range; each row has a cell a day.
MAX_DAYS = 36_525


def read_prevalence_csv(path: str | Path) -> DailyAggregate:
    """Rebuild the daily counts of a long-format CSV, categories in sorted order.

    The counts span the first to the last day listed. Every listed day lists
    every category, all with one ``total``; a day that no row lists has
    total 0, which reads as missing. A file with no rows is a
    ``ValueError``; a span of more than :data:`MAX_DAYS` days, a count that
    is not plain ASCII digits or lies outside the int64 range, a ``matched``
    above its ``total``, a repeated day and category, a listed day that
    lacks a category, or a day whose categories give different totals, a
    format error. Rows are checked as they are read, so the first faulty
    row is the one named; the span and the lacking categories, after the last.
    """
    totals: dict[date, int] = {}
    cells: dict[str, dict[date, int]] = {}  # category -> day -> matched

    def take(row: dict[str, str]) -> None:
        day, cat, (matched, total) = iso_date(row["date"]), row["category"], _counts(row)
        counts = cells.setdefault(cat, {})
        if day in counts:
            raise ValueError(f"duplicate {day} {cat}")
        if totals.setdefault(day, total) != total:
            raise ValueError(f"total {total} for {day} {cat}, "
                             f"where an earlier row of {day} gives {totals[day]}")
        counts[day] = matched

    read_csv(path, ["date", "category", "matched", "total", "percent"], take)
    if not totals:
        raise ValueError(f"{path}: no prevalence rows")
    start, last = min(totals), max(totals)
    n = (last - start).days + 1
    if n > MAX_DAYS:
        raise FormatError(f"{path}: {start}..{last} spans {n} days, more than {MAX_DAYS}")
    names = tuple(sorted(cells))
    for day in sorted(totals):
        if lacking := [c for c in names if day not in cells[c]]:
            raise FormatError(f"{path}: {day} has no row for {lacking[0]}")
    days = [start + timedelta(days=i) for i in range(n)]
    return DailyAggregate(start=start, categories=names,
                          matched=[tuple(cells[c].get(d, 0) for d in days) for c in names],
                          totals=tuple(totals.get(d, 0) for d in days), dropped=0)
