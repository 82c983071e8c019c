"""The corpus fold: shares of byte ranges tile the files, and a fold in
forked workers equals the fold of one pass in this process."""

import copy
import json
import os
import random
import re
import signal
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import CategorySet, aggregate_daily, build_matcher, make_lexicon
from crisismon import corpus as corpus_mod
from crisismon.corpus import (ByteRange, Corpus, CorpusStats, MalformedLine, ParseReport,
                              corpus_stats, fold_corpus, pool_size, read_range, split_shares)
from crisismon.errors import FormatError
from crisismon.matching import DailyAggregate

from oracles import naive_aggregate, naive_records, naive_stats, ref_preprocess

START = date(2020, 3, 1)
END = date(2020, 3, 20)


def _split(paths, n):
    return split_shares([str(p) for p in paths], [p.stat().st_size for p in paths], n)


def _check_tiling(paths, shares, n):
    assert len(shares) <= n and all(shares)
    ranges = [r for share in shares for r in share]
    order = [([str(p) for p in paths].index(r.path), r.start) for r in ranges]
    assert order == sorted(order)
    for path in paths:
        data = path.read_bytes()
        mine = [r for r in ranges if r.path == str(path)]
        assert b"".join(data[r.start:r.end] for r in mine) == data
        assert [r.start for r in mine] == sorted(r.start for r in mine)
        for r in mine:
            assert r.start < r.end
            assert r.start == 0 or data[r.start - 1:r.start] == b"\n"
            assert b"".join(read_range(r)) == data[r.start:r.end]


class TestSplitShares:
    @pytest.mark.parametrize("body", [
        b"",
        b'{"a": 1}',
        b'{"a": 1}\n',
        b"uno\ndos\ntres",
        b"uno\r\ndos\r\n\r\ntres\r\n",
        b"\n\n\n",
        b"x" * 300 + b"\ny\n" + b"z" * 50,
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 10_000])
    def test_shares_tile_the_file_from_line_starts(self, tmp_path, body, n):
        path = tmp_path / "c.jsonl"
        path.write_bytes(body)
        shares = _split([path], n)
        _check_tiling([path], shares, n)
        assert (shares == []) == (body == b"")

    def test_cuts_are_even_across_files_and_move_to_line_starts(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b"aaaa\n" * 2)  # bytes 0..9
        b.write_bytes(b"bbbbbbb\n" * 4)  # bytes 10..41; cuts at 14 and 28
        assert _split([a, b], 3) == [
            [ByteRange(str(a), 0, 10), ByteRange(str(b), 0, 8)],
            [ByteRange(str(b), 8, 24)],
            [ByteRange(str(b), 24, 32)],
        ]

    @settings(max_examples=200, deadline=None)
    @given(files=st.lists(
        st.tuples(st.lists(st.sampled_from([b"", b"a", b"bb", b"\xff\xfe", b"ccc\r"]),
                           max_size=12), st.booleans()),
        min_size=1, max_size=4), n=st.integers(1, 40))
    def test_any_files_are_tiled(self, tmp_path_factory, files, n):
        root = tmp_path_factory.mktemp("split")
        paths = []
        for i, (lines, trailing) in enumerate(files):
            paths.append(root / f"c{i}.jsonl")
            paths[-1].write_bytes(b"\n".join(lines) + (b"\n" if trailing and lines else b""))
        _check_tiling(paths, _split(paths, n), n)

    def test_an_empty_range_reads_nothing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"a\nb\n")
        assert list(read_range(ByteRange(str(path), 2, 2))) == []


@pytest.fixture()
def cpus(monkeypatch):
    """Three usable CPUs, whatever the host has, so the pool runs everywhere."""
    monkeypatch.setattr(corpus_mod, "usable_cpus", lambda: 3)


@pytest.fixture()
def pool_on(monkeypatch, cpus):
    """No size floor, so a corpus of a few kilobytes goes to the pool."""
    monkeypatch.setattr(corpus_mod, "MIN_POOL_BYTES", 1)


def test_pool_size_is_capped_by_workers_cpus_and_corpus(monkeypatch):
    monkeypatch.setattr(corpus_mod, "usable_cpus", lambda: 4)
    big = corpus_mod.MIN_POOL_BYTES
    assert pool_size(8, big) == 4
    assert pool_size(3, big) == 3
    assert pool_size(1, big) == 1
    assert pool_size(8, big - 1) == 1
    assert pool_size(8, None) == 1


class _Pids:
    """A fold's partial: the records read, and the processes that read any."""

    def __init__(self, tweets):
        self.n = sum(1 for _ in tweets)
        self.pids = {os.getpid()} if self.n else set()

    def merge(self, later):
        self.pids |= later.pids
        self.n += later.n
        return self


@pytest.mark.parametrize("a, b, total", [
    (DailyAggregate(START, ("A", "B"), [(1, 0), (0, 2)], (3, 4), 1),
     DailyAggregate(START, ("A", "B"), [(2, 1), (1, 1)], (2, 5), 2),
     DailyAggregate(START, ("A", "B"), [(3, 1), (1, 3)], (5, 9), 3)),
    (CorpusStats(Counter(original=2, reply=1), 1, Counter(u1=2, u2=1), Counter({START: 3})),
     CorpusStats(Counter(original=1, retweet=4), 3, Counter(u2=1, u3=4),
                 Counter({START: 1, END: 4})),
     CorpusStats(Counter(original=3, reply=1, retweet=4), 4, Counter(u1=2, u2=2, u3=4),
                 Counter({START: 4, END: 4}))),
], ids=["daily-aggregate", "corpus-stats"])
def test_merge_returns_the_sum_and_leaves_both_parts_as_they_were(a, b, total):
    before = copy.deepcopy((a, b))
    merged = a.merge(b)
    assert type(merged) is type(a) and merged == total
    assert (a, b) == before


def _fold_pids(corpus, workers):
    folded = fold_corpus(corpus, _Pids, workers, ParseReport())
    return folded.pids, folded.n


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_small_corpus_stays_in_process(tmp_path, cpus):
    path = tmp_path / "c.jsonl"
    path.write_text(_record(0, 0) + "\n", encoding="utf-8")
    assert _fold_pids(Corpus((str(path),)), workers=2) == ({os.getpid()}, 1)


def test_a_corpus_of_no_files_folds_no_records(cpus):
    assert _fold_pids(Corpus(()), workers=2) == (set(), 0)


def test_a_pool_folds_here_and_in_forked_workers(tmp_path, pool_on):
    paths = _write_corpus(tmp_path)
    pids, n = _fold_pids(Corpus(tuple(paths)), workers=3)
    assert os.getpid() in pids and len(pids) == 3
    assert n == _fold_pids(Corpus(tuple(paths)), workers=1)[1]
    assert _no_children_left()


def _killed_in_worker(parent):
    def fold(tweets):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return _Pids(tweets)
    return fold


def test_a_worker_that_dies_fails_the_fold_instead_of_hanging(tmp_path, pool_on):
    paths = _write_corpus(tmp_path)
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        fold_corpus(Corpus(tuple(paths)), _killed_in_worker(os.getpid()), 2, ParseReport())
    assert _no_children_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_fork_that_fails_leaks_no_pipe_and_no_worker(tmp_path, monkeypatch, pool_on):
    paths = _write_corpus(tmp_path)
    forks, fork = [], os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(corpus_mod.os, "fork", second_fails)
    with pytest.raises(BlockingIOError):
        _fold_pids(Corpus(tuple(paths)), workers=3)
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert _no_children_left()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once_to_its_end(cpus):
    r, w = os.pipe()
    os.write(w, ("\n".join(_record(i, i) for i in range(3)) + "\n{broken\n").encode())
    os.close(w)
    report = ParseReport()
    try:
        stats = corpus_stats(Corpus((f"/dev/fd/{r}",)), 2, report)
    finally:
        os.close(r)
    assert (stats.total, report.lines, report.skipped) == (3, 4, 1)


def _record(i, day, kind="original", text="hola mundo", created=None):
    if created is None:
        created = (datetime(2020, 3, 1, 15, tzinfo=timezone.utc) + timedelta(days=day)).isoformat()
    return json.dumps({"id": f"t{i}", "created_at": created, "text": text,
                       "kind": kind, "user_id": f"u{i % 7}"}, ensure_ascii=False)


def _write_corpus(tmp_path):
    """Four files with every kind of line the fold must count the same way."""
    rng = random.Random(5)
    words = ["hola", "triste", "ansiedad", "miedo", "casa", "ataque de pánico", "#Cuarentena"]
    files = []
    for f in range(4):
        lines = []
        for i in range(60):
            n = f * 1000 + i
            roll = rng.random()
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 9)))
            if roll < 0.05:
                lines.append(b"")
            elif roll < 0.10:
                lines.append(b'{"id": "x", "created_at"')
            elif roll < 0.13:
                lines.append(_record(n, 3, text="mal \xff").encode("utf-8")
                             .replace(b"\xc3\xbf", b"\xff"))
            elif roll < 0.16:
                lines.append(b"[1, 2]")
            elif roll < 0.18:
                lines.append(_record(n, 4, text="triste " * 400).encode("utf-8"))
            else:
                kind = rng.choice(["original", "original", "reply", "retweet"])
                lines.append(_record(n, rng.randrange(-3, 25), kind, text).encode("utf-8"))
        body = b"\n".join(lines)
        if f == 1:
            body = body.replace(b"\n", b"\r\n")
        if f != 2:
            body += b"\n"
        path = tmp_path / f"c{f}.jsonl"
        path.write_bytes(body)
        files.append(str(path))
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    one = tmp_path / "one.jsonl"
    one.write_text(_record(9999, 2, text="miedo"), encoding="utf-8")
    return [files[0], str(empty), files[1], files[2], str(one), files[3]]


def _cats():
    return CategorySet(name="t", categories={
        "sad": make_lexicon("sad", ["triste", "miedo"]),
        "panic": make_lexicon("panic", ["ataque de pánico", "ansiedad"]),
        "tag": make_lexicon("tag", ["cuarentena"]),
    })


def _matcher():
    return build_matcher(_cats())


def _outcome(agg, report):
    matrix = {name: (list(row), list(agg.totals))
              for name, row in zip(agg.categories, agg.matched)}
    return matrix, agg.dropped, report


def _analyze(paths, workers, strict=False):
    report = ParseReport()
    agg = aggregate_daily(Corpus(tuple(paths), strict=strict), _matcher(),
                          START, END, workers, report=report)
    return _outcome(agg, report)


def _moved_cuts(paths, n):
    """How far each cut between shares moved on to reach a line start."""
    sizes = [os.path.getsize(p) for p in paths]
    shares = split_shares(paths, sizes, n)
    assert len(shares) == n
    return [sum(sizes[:paths.index(share[0].path)]) + share[0].start - -(-k * sum(sizes) // n)
            for k, share in enumerate(shares) if k]


@pytest.mark.parametrize("workers", [2, 3])
def test_workers_one_and_more_fold_the_same(tmp_path, pool_on, workers):
    paths = _write_corpus(tmp_path)
    assert all(moved > 0 for moved in _moved_cuts(paths, workers))  # lines straddle the cuts
    serial = _analyze(paths, 1)
    parallel = _analyze(paths, workers)
    assert serial == parallel
    matrix, dropped, report = serial
    assert dropped > 0 and report.skipped > 10 and len(report.examples) == 10
    assert sum(matrix["sad"][0]) > 0
    assert {source for _, _, source in report.examples} == {paths[0], paths[2]}

    stats = [(corpus_stats(Corpus(tuple(paths)), w, r).to_json_dict(), r)
             for w, r in ((1, ParseReport()), (workers, ParseReport()))]
    assert stats[0] == stats[1]
    assert stats[0][1] == report


def test_strict_reports_the_first_malformed_line_in_file_order(tmp_path, pool_on):
    paths = _write_corpus(tmp_path)
    messages = []
    for workers in (1, 3):
        with pytest.raises(FormatError) as exc:
            _analyze(paths, workers, strict=True)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{paths[0]}: line ")
    assert _no_children_left()


def test_a_later_malformed_line_names_its_file_and_line(tmp_path, pool_on):
    good = _record(0, 1)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("\n".join([good] * 40) + "\n", encoding="utf-8")
    b.write_text("\n".join([good] * 30 + ["{broken"] + [good] * 30) + "\n",
                 encoding="utf-8")
    for workers in (1, 3):
        with pytest.raises(FormatError, match=f"^{re.escape(str(b))}: line 31: "):
            _analyze([str(a), str(b)], workers, strict=True)


# One line for each way out of the JSON scanner's fast path in corpus.records,
# then two timestamps at the year ends and one in lowercase-z UTC.
_FALLBACKS = [
    "   " + _record(1, 2, text="miedo"),  # leading spaces
    "\ufeff" + _record(2, 2, text="miedo"),  # a BOM
    _record(3, 3, text="triste") + "\r",  # a \r\n ending
    _record(4, 3, kind="reply", text="ansiedad") + " \t",  # trailing whitespace
    "{} x",
    _record(5, 4, text="miedo") + _record(6, 4, text="miedo"),  # two objects
    "\u00a0",  # blank to str.strip
    _record(7, 4, text="miedo") + "\x0b",  # not JSON whitespace: "Extra data"
    _record(9, 4, text="miedo") + " x",  # data after whitespace
    _record(10, 0, created="9999-12-31T23:00:00-03:00"),  # day 9999-12-31 at UTC-3
    _record(11, 0, created="0001-01-01T01:00:00+03:00"),  # before year 1 at UTC-3
    _record(12, 0, created="2020-03-02T01:00:00z"),  # day 2020-03-01 at UTC-3
]


def _write_fallbacks(tmp_path):
    path = tmp_path / "fallbacks.jsonl"
    # The last line has no newline.
    path.write_text("\n".join(_FALLBACKS + [_record(8, 5, text="cuarentena")]),
                    encoding="utf-8")
    return str(path)


def _file_lines(path):
    """A file's lines as a binary read splits them, without their ``\\n``."""
    lines = Path(path).read_bytes().split(b"\n")
    return lines[:-1] if lines[-1] == b"" else lines


def _naive(paths, strict=False):
    """What the README's corpus rules and the naive counters make of the
    files: the count matrix, ``dropped``, the lines, parsed and skipped
    counts, the first skipped lines with their files, and the corpus
    statistics; under ``strict``, the first malformed line's file and number."""
    docs, tweets, skipped, lines = [], [], [], 0
    for path in paths:
        file_lines = _file_lines(path)
        recs, bad = naive_records(file_lines, strict=strict)
        if strict and bad:
            return path, bad[0]
        lines += len(file_lines)
        skipped += [(lineno, path) for lineno in bad]
        tweets += [obj for obj, _, _ in recs]
        docs += [(day, ref_preprocess(obj["text"])) for obj, kind, day in recs
                 if kind != "retweet"]
    terms = {name: sorted(lex.terms) for name, lex in _cats().categories.items()}
    matched, totals, dropped = naive_aggregate(docs, terms, START, END)
    days = sorted(totals)
    matrix = {name: ([matched[name][d] for d in days], [totals[d] for d in days])
              for name in terms}
    return (matrix, dropped, (lines, len(tweets), len(skipped)),
            skipped[:ParseReport.MAX_EXAMPLES], naive_stats(tweets))


def _fold(paths, workers, strict=False):
    """:func:`_analyze` and :func:`corpus_stats` in :func:`_naive`'s shape."""
    try:
        matrix, dropped, report = _analyze(paths, workers, strict)
        stats = corpus_stats(Corpus(tuple(paths), strict=strict), workers, ParseReport())
    except MalformedLine as exc:
        return exc.source, exc.lineno
    return (matrix, dropped, (report.lines, report.parsed, report.skipped),
            [(lineno, source) for lineno, _, source in report.examples], stats.to_json_dict())


@pytest.mark.parametrize("workers", [1, 3])
def test_the_corpus_fold_counts_as_the_naive_oracle(tmp_path, pool_on, workers):
    """The fold counts what the README's corpus rules, read by an oracle that
    shares no code with ``corpus.records``, say the files hold: the whole
    corpus, each file alone (so a later range of a file must number its
    lines within the file) and each fallback line alone, lenient and strict."""
    fallbacks = _write_fallbacks(tmp_path)
    paths = _write_corpus(tmp_path) + [fallbacks]
    for i, line in enumerate(_FALLBACKS):
        paths.append(str(tmp_path / f"fallback{i}.jsonl"))
        Path(paths[-1]).write_text(line + "\n", encoding="utf-8")
    for some in [paths, *([path] for path in paths)]:
        for strict in (False, True):
            assert _fold(some, workers, strict) == _naive(some, strict)
    assert _fold([paths[0]], workers, strict=True)[0] == paths[0]
    _, _, counts, skipped, _ = _fold([fallbacks], workers)
    assert counts == (13, 6, 6)
    assert [line for line, _ in skipped] == [2, 5, 6, 8, 9, 11]
