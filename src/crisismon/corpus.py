r"""Corpus ingestion: JSONL parsing, text normalization, corpus statistics.

Corpora arrive as UTF-8 line-delimited JSON, one tweet per line with keys
``id``, ``created_at`` (ISO-8601), ``text``, ``kind`` (``original`` |
``reply`` | ``retweet``) and ``user_id``. Parsing is lenient by default:
malformed lines are counted and skipped so that a single corrupt record does
not abort a multi-gigabyte ingest. Strict mode turns any malformed line into
a :class:`~crisismon.errors.FormatError`.

Normalization keeps diacritics (the Spanish lexicons carry accents), removes
URLs and @-mentions, splits hashtags into their constituent words, applies
Unicode compatibility normalization plus lowercasing, and emits maximal runs
of letters or digits. No stemming or lemmatization is applied.

Every tweet takes this path, so it skips work that cannot change the result.
Each substitution runs only when its literal trigger is in the text (``://``
or ``www.`` for URLs, ``@`` for mentions, ``#`` for hashtags): no pattern can
match without it. A hashtag body's replacement is memoized, as a pure
function of the body. Text that is ASCII after the substitutions skips NFKC
and uses an ASCII token pattern: NFKC leaves ASCII unchanged, ``lower()``
keeps it ASCII, and on ASCII the letter class ``[^\W\d_]`` is ``[A-Za-z]``
and ``\d`` is ``[0-9]``. Lowered ASCII with no digit has no token but its
runs of ``[a-z]``, so a byte table that turns every other byte into a space,
then ``split()``, gives the same tokens as the pattern.

One loop, :func:`records`, takes every line from bytes to a checked record
``(obj, kind, day)``: decoding, JSON, the field checks, the day and the skip
bookkeeping. It is the only way a corpus line becomes data:
:func:`corpus_stats` counts the records of each range, and the analyze fold
in ``matching`` tokenizes and matches their texts. JSON goes first to the C scanner that
``json.loads`` itself calls, at the line's first character: when the value
it returns ends the line, or is followed by a single ``\n``, ``json.loads``
would return that same value, since all it does beyond the scan is skip
whitespace before and after the value and reject anything else that
follows. Every other line (blank, leading whitespace, a BOM, a ``\r\n``
ending, trailing data, a scanner error) goes to ``json.loads``, so its value
or error is ``json.loads``' own. One expression tests that every field is
present with its type; only a line that fails it runs the field-by-field
checks, which find the fault to report, so a good line skips them and a bad
one is reported as before. The day is the timestamp plus a shift that
depends only on its UTC offset, so each offset's shift is worked out once
per call.

A :class:`Corpus` is folded range by range: :func:`fold_corpus` cuts its
files into byte ranges that start at line starts, folds each range into a
partial result and yields the partials in file order, so the caller's sum is
the same whether the ranges ran in this process or in forked workers. Every
parse error and skip names its file and the line within it.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import stat
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import FormatError

KIND_ORIGINAL = "original"
KIND_REPLY = "reply"
KIND_RETWEET = "retweet"
KINDS = (KIND_ORIGINAL, KIND_REPLY, KIND_RETWEET)

#: Fixed-offset timezone used to bucket timestamps into calendar days
#: (Argentina, UTC-3).
DEFAULT_TZ_OFFSET_HOURS = -3

_URL_RE = re.compile(r"\b[a-zA-Z][a-zA-Z0-9+.-]*://\S+|\bwww\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
# A token is a maximal run of letters (any script, accents included) or a
# maximal run of digits; everything else separates.
_TOKEN_RE = re.compile(r"[^\W\d_]+|\d+")
_DIGIT_RE = re.compile(r"[0-9]")
# Every byte that is not an ASCII letter or digit becomes a space.
_SPACES = bytes(b if chr(b).isascii() and chr(b).isalnum() else 32 for b in range(256))

# The required keys, in the order they are checked, and the JSON types each
# may hold; ``kind`` may hold any, but must be one of KINDS.
_FIELDS = (("id", (str, int)), ("created_at", (str,)), ("text", (str,)), ("kind", ()),
           ("user_id", (str, int)))
_ID_TYPES = frozenset((str, int))
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a float",
               str: "a string", list: "an array", dict: "an object"}

#: JSON nested deeper than this is malformed. Python's json parser recurses
#: once per level and fails at a depth that depends on how deep the caller's
#: stack is, which differs between call paths and processes; a fixed cap
#: well below that depth makes the outcome a function of the line alone.
MAX_DEPTH = 500
_JSON_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def where(source: str, lineno: int) -> str:
    """``"path: line N"``, or ``"line N"`` for a stream with no file name."""
    return f"{source}: line {lineno}" if source else f"line {lineno}"


@dataclass
class ParseReport:
    """Mutable sink for lenient-mode parse outcomes.

    ``examples`` holds the first skips in line order as ``(line number,
    reason, file)`` triples; the file is ``""`` for an unnamed stream.
    """

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    examples: list[tuple[int, str, str]] = field(default_factory=list)

    MAX_EXAMPLES = 10

    def record_skip(self, lineno: int, reason: str, source: str = "") -> None:
        self.skipped += 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append((lineno, reason, source))

    def merge(self, later: ParseReport, line_offset: int = 0) -> None:
        """Add the outcomes of the lines that follow this report's;
        ``line_offset`` is added to the line numbers of ``later``."""
        self.lines += later.lines
        self.parsed += later.parsed
        self.skipped += later.skipped
        self.examples += [(lineno + line_offset, reason, source) for lineno, reason, source
                          in later.examples[: self.MAX_EXAMPLES - len(self.examples)]]


class MalformedLine(FormatError):
    """The first malformed line of a strict corpus parse."""

    def __init__(self, source: str, lineno: int, reason: str):
        super().__init__(source, lineno, reason)
        self.source, self.lineno, self.reason = source, lineno, reason

    def __str__(self) -> str:
        return f"{where(self.source, self.lineno)}: {self.reason}"


def split_hashtag(tag: str) -> list[str]:
    """Split a hashtag body (without '#') into constituent words.

    Boundaries are lowercase-to-uppercase transitions, transitions between
    letters and digits (both directions), and underscores. Pieces are
    lowercased. All-lowercase concatenations ("quedateencasa") are returned
    whole; no dictionary segmentation is attempted.
    """
    pieces: list[str] = []
    cur: list[str] = []
    prev = ""
    for ch in tag:
        if ch == "_":
            if cur:
                pieces.append("".join(cur))
                cur = []
            prev = ""
            continue
        if cur and (
            (prev.islower() and ch.isupper())
            or (prev.isalpha() and ch.isdigit())
            or (prev.isdigit() and ch.isalpha())
        ):
            pieces.append("".join(cur))
            cur = []
        cur.append(ch)
        prev = ch
    if cur:
        pieces.append("".join(cur))
    return [p.lower() for p in pieces]


@lru_cache(maxsize=4096)
def _hashtag_words(body: str) -> str:
    """What a hashtag with this body is replaced by: its split words."""
    return " " + " ".join(split_hashtag(body)) + " "


def preprocess(text: str) -> list[str]:
    """Normalize raw tweet text into a token list.

    URLs (any ``scheme://`` run or ``www.``-prefixed run) and @-mentions are
    removed entirely; hashtags are replaced by their split constituent words;
    the result is NFKC-normalized and lowercased; tokens are maximal runs of
    letters or of digits. Punctuation and symbols act as separators, so
    "covid-19" yields ["covid", "19"].
    """
    # Each pattern needs its literal trigger, so a text without it is left
    # as it is without running the substitution.
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(lambda m: _hashtag_words(m[1]), text)
    # NFKC leaves ASCII unchanged and lower() keeps it ASCII.
    if text.isascii():
        text = text.lower()
        if not _DIGIT_RE.search(text):
            return text.encode().translate(_SPACES).decode().split()
    else:
        text = unicodedata.normalize("NFKC", text).lower()
    return _TOKEN_RE.findall(text)


def _too_deep(text: str) -> bool:
    """True when the arrays and objects of a JSON text nest more than
    :data:`MAX_DEPTH` deep, brackets in strings left out."""
    if text.count("[") + text.count("{") <= MAX_DEPTH:
        return False
    depth = 0
    for ch in _JSON_STRING_RE.sub("", text):
        if ch in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif ch in "]}":
            depth -= 1
    return False


def records(
    lines: Iterable[str | bytes],
    tz_offset_hours: int = DEFAULT_TZ_OFFSET_HOURS,
    strict: bool = False,
    report: ParseReport | None = None,
    source: str = "",
) -> Iterator[tuple[dict, str, date]]:
    """Yield ``(obj, kind, day)`` for each valid line, in file order: the
    line's JSON object, every required field of its JSON type, its kind and
    the day of its timestamp at ``tz_offset_hours``.

    Blank lines are ignored. In lenient mode (the default) malformed lines
    are skipped and recorded on ``report``; in strict mode the first
    malformed line raises :class:`MalformedLine`, a :class:`FormatError`,
    with its line number. A ``source`` file name prefixes each error and
    skip.
    Byte lines are decoded as UTF-8: invalid bytes are replaced with U+FFFD
    in lenient mode and make the line malformed in strict mode.
    A line is malformed when it nests more than :data:`MAX_DEPTH` deep, is
    not a JSON object, lacks a required key, has a field of another JSON type
    (``id`` and ``user_id`` hold a string or an integer, ``created_at`` and
    ``text`` a string), an empty ``id``, an unknown ``kind``, or a
    ``created_at`` that is not ISO-8601 or whose day falls outside years 1 to
    9999. Id uniqueness is trusted, not checked (verifying it would require
    holding every id of a corpus in memory).
    """
    tz_delta = timedelta(hours=tz_offset_hours)
    # The shift to the local day, by the fixed-offset tzinfo (None when naive);
    # timezones are equal when their offsets are.
    shifts: dict[timezone | None, timedelta] = {}
    errors = "strict" if strict else "replace"
    scan = json.JSONDecoder().scan_once
    if report is None:
        report = ParseReport()
    for lineno, line in enumerate(lines, start=1):
        report.lines += 1
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8", errors=errors)
            if len(line) > MAX_DEPTH and _too_deep(line):
                raise ValueError(f"nested more than {MAX_DEPTH} deep")
            try:
                # json.loads' own value when it ends the line (module docstring).
                try:
                    obj, end = scan(line, 0)
                    whole = line[end:] in ("", "\n")
                except (StopIteration, ValueError):
                    whole = False
                if not whole:
                    if not line.strip():
                        continue
                    obj = json.loads(line)
            except RecursionError as exc:  # a deep stack and deep nesting
                raise ValueError(str(exc)) from exc
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            if not ("kind" in obj and type(obj.get("id")) in _ID_TYPES
                    and type(obj.get("created_at")) is str and type(obj.get("text")) is str
                    and type(obj.get("user_id")) in _ID_TYPES):
                for key, types in _FIELDS:  # the first fault, in this order
                    if key not in obj:
                        raise ValueError(f"missing key {key!r}")
                    if types and type(obj[key]) not in types:
                        raise ValueError(f"{key!r} must be "
                                         f"{' or '.join(map(_JSON_TYPES.get, types))}"
                                         f", not {_JSON_TYPES[type(obj[key])]}")
            if obj["id"] == "":
                raise ValueError("empty id")
            kind = obj["kind"]
            if kind not in KINDS:
                raise ValueError(f"bad kind {kind!r}")
            # ISO-8601, a trailing 'Z' accepted on Python 3.10 too; naive is UTC.
            raw = obj["created_at"]
            if raw.endswith(("Z", "z")):
                raw = raw[:-1] + "+00:00"
            created = datetime.fromisoformat(raw)
            shift = shifts.get(created.tzinfo)
            if shift is None:
                shift = shifts[created.tzinfo] = tz_delta - (created.utcoffset() or timedelta(0))
            try:
                # Not through UTC, which may lie past a year end the day does not.
                day = (created + shift).date()
            except OverflowError as exc:  # the day falls outside years 1..9999
                raise ValueError(str(exc)) from exc
        except (ValueError, TypeError) as exc:
            if strict:
                raise MalformedLine(source, lineno, str(exc)) from exc
            report.record_skip(lineno, str(exc), source)
            continue
        report.parsed += 1
        yield obj, kind, day


@dataclass
class CorpusStats:
    """Exact corpus counts, merged range by range."""

    total: int = 0
    n_original: int = 0
    n_retweet: int = 0
    n_reply: int = 0
    n_with_hashtag: int = 0
    per_user: Counter = field(default_factory=Counter)
    per_day: Counter = field(default_factory=Counter)

    def merge(self, other: CorpusStats) -> None:
        """Add the counts of another part of the corpus."""
        self.total += other.total
        self.n_original += other.n_original
        self.n_retweet += other.n_retweet
        self.n_reply += other.n_reply
        self.n_with_hashtag += other.n_with_hashtag
        self.per_user.update(other.per_user)
        self.per_day.update(other.per_day)

    def user_summary(self) -> dict | None:
        """min/avg/max/median tweets per user; None for an empty corpus.

        The median uses the lower-median rule for even-sized lists, which
        keeps it deterministic and integral.
        """
        if not self.per_user:
            return None
        counts = sorted(self.per_user.values())
        n = len(counts)
        return {
            "min": counts[0],
            "avg": sum(counts) / n,
            "max": counts[-1],
            "median": counts[(n - 1) // 2],
        }

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "original": self.n_original,
            "retweet": self.n_retweet,
            "reply": self.n_reply,
            "with_hashtag": self.n_with_hashtag,
            "users": len(self.per_user),
            "per_user": self.user_summary(),
            "per_day": {d.isoformat(): c for d, c in sorted(self.per_day.items())},
        }


def _count_stats(recs: Iterator[tuple[dict, str, date]]) -> CorpusStats:
    """The counts of a range's records, retweets included. A user is keyed
    by the string of its id, so ``5`` and ``"5"`` are one user."""
    kinds: Counter = Counter()
    per_user: Counter = Counter()
    per_day: Counter = Counter()
    with_hashtag = 0
    for obj, kind, day in recs:
        kinds[kind] += 1
        per_user[str(obj["user_id"])] += 1
        per_day[day] += 1
        text = obj["text"]
        if "#" in text and _HASHTAG_RE.search(text):
            with_hashtag += 1
    return CorpusStats(sum(kinds.values()), kinds[KIND_ORIGINAL], kinds[KIND_RETWEET],
                       kinds[KIND_REPLY], with_hashtag, per_user, per_day)


#: A corpus smaller than this is folded in this process: below about this
#: size, forking a worker costs more than it saves (measured in ROADMAP,
#: "Measured and parked").
MIN_POOL_BYTES = 1 << 20


class Corpus(NamedTuple):
    """Corpus files, in reading order, and how their lines are parsed."""

    paths: tuple[str, ...]
    tz_offset_hours: int = DEFAULT_TZ_OFFSET_HOURS
    strict: bool = False


class ByteRange(NamedTuple):
    """Bytes ``[start, end)`` of one file, or the whole file when ``end`` is
    None; ``start`` is a line start."""

    path: str
    start: int
    end: int | None


def split_shares(paths: Sequence[str], sizes: Sequence[int], n: int) -> list[list[ByteRange]]:
    """Cut the files, taken end to end, into at most ``n`` shares of about
    equal size, each a list of ranges in file order.

    The files are cut every ``total / n`` bytes, each cut moved on to the
    next line start, so the shares tile the files and every range starts at
    a line start. Lines end at ``\\n`` alone, as in a binary read, so a
    ``\\r\\n`` is never cut. A cut moved past the next one leaves a share
    empty; empty shares, and empty files, are left out.
    """
    total = sum(sizes)
    shares: list[list[ByteRange]] = [[] for _ in range(n)]
    base = 0  # bytes in the files before this one
    for path, size in zip(paths, sizes):
        with open(path, "rb") as fh:
            start = 0
            while start < size:
                k = (base + start) * n // total  # the share this range belongs to
                end = min(size, -(-(k + 1) * total // n) - base)
                if end < size:
                    fh.seek(end - 1)
                    end += len(fh.readline()) - 1
                shares[k].append(ByteRange(path, start, end))
                start = end
        base += size
    return [share for share in shares if share]


def read_range(r: ByteRange) -> Iterator[bytes]:
    """The lines of a range, read one at a time."""
    if r.end is None:
        with open(r.path, "rb") as fh:
            yield from fh
        return
    left = r.end - r.start
    if left <= 0:
        return
    with open(r.path, "rb") as fh:
        fh.seek(r.start)
        for line in fh:
            yield line
            left -= len(line)
            if left <= 0:
                return


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def pool_size(workers: int, corpus_bytes: int | None) -> int:
    """Processes that fold a corpus of ``corpus_bytes`` under a cap of
    ``workers``: 1 below ``MIN_POOL_BYTES``, for a corpus that is not all
    regular files (None) and on a platform without ``fork``."""
    if corpus_bytes is None or corpus_bytes < MIN_POOL_BYTES or not hasattr(os, "fork"):
        return 1
    return min(workers, usable_cpus())


T = TypeVar("T")


def _fold_share(fold: Callable[[Iterator], T], corpus: Corpus, share: list[ByteRange]
                ) -> Iterator[tuple[T, ParseReport] | Exception]:
    """For each range in order, ``fold`` over the :func:`records` of its
    lines, and its parse outcomes, its lines numbered from 1; an exception
    ends the share."""
    for r in share:
        report = ParseReport()
        try:
            recs = records(read_range(r), corpus.tz_offset_hours, corpus.strict, report, r.path)
            outcome = fold(recs), report
        except Exception as exc:
            yield exc
            return
        yield outcome


def _fork(fold: Callable[[Iterator], T], corpus: Corpus,
          share: list[ByteRange]) -> tuple[int, int]:
    """Fork a worker that folds ``share`` and writes the outcomes, pickled,
    to a pipe; return the worker's pid and the pipe's read end."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker, which never returns from here
        code = 1
        try:
            os.close(rfd)
            data = pickle.dumps(list(_fold_share(fold, corpus, share)), pickle.HIGHEST_PROTOCOL)
            with open(wfd, "wb") as pipe:
                pipe.write(data)
            code = 0
        except Exception:  # an outcome that cannot be pickled, say
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd


def _fold_shares(fold: Callable[[Iterator], T], corpus: Corpus, shares: list[list[ByteRange]]
                 ) -> Iterator[tuple[ByteRange, tuple[T, ParseReport] | Exception]]:
    """Each range with its outcome, in file order. The first share is
    folded in this process and every other one in a forked worker, all at
    once; a worker's outcomes are read when the shares before it are done.
    A worker that dies raises :class:`ChildProcessError`, and workers still
    running when the fold stops are killed."""
    workers: list[tuple[int, int]] = []  # (pid, read end) of each worker not yet reaped
    try:
        for share in shares[1:]:
            workers.append(_fork(fold, corpus, share))
        yield from zip(shares[0], _fold_share(fold, corpus, shares[0]))
        for share in shares[1:]:
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(workers.pop(0)[1])
            if code:
                raise ChildProcessError(f"a corpus worker was killed by signal {-code}"
                                        if code < 0 else
                                        f"a corpus worker exited with status {code}")
            yield from zip(share, pickle.loads(data))
    finally:
        if workers:
            import signal  # here: a fold that runs to its end never needs it
        for pid, fd in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _file_size(path: str) -> int | None:
    """Bytes in a regular file, opened here so that an unreadable one fails
    first; None for a pipe or another stream, which can be read only once."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, "rb") as fh:
        return fh.seek(0, os.SEEK_END)


def fold_corpus(corpus: Corpus, fold: Callable[[Iterator], T], workers: int,
                report: ParseReport) -> Iterator[T]:
    """Yield ``fold(recs)`` for each byte range of the corpus, in file order,
    where ``recs`` iterates over the :func:`records` of the range's lines.

    Each range's parse outcomes are merged into ``report``, its lines
    numbered within their file, before its result is yielded, so a sum of
    the results in yield order, and ``report``, are those of one pass over
    the files. Under ``strict`` the first malformed line in file order
    raises :class:`MalformedLine`, as in one pass. Every path is looked up,
    and every regular file opened, before the first line is parsed, so a
    missing file fails first.

    With :func:`pool_size` above 1, the corpus is cut into that many shares
    (:func:`split_shares`): this process folds the first and a forked worker
    each other one. ``fork``, not ``spawn``: a spawned worker starts a fresh
    interpreter and imports NumPy again, which cost more than the parallel
    fold saved. Otherwise each file is one range, read to its end in this
    process, so a pipe such as ``<(zcat corpus.jsonl.gz)`` works. A forked
    worker runs only this module's parsing and the fold, never NumPy's
    threaded linear algebra, so a lock held by a thread at the fork (NumPy's
    BLAS may start threads) is never waited on.
    """
    sizes = [_file_size(path) for path in corpus.paths]
    n = pool_size(workers, None if None in sizes else sum(sizes))
    if n > 1:
        shares = split_shares(corpus.paths, sizes, n)
    else:
        shares = [[ByteRange(path, 0, None) for path in corpus.paths]]
    lines_before = 0  # lines of the range's file in the ranges before it
    for r, outcome in _fold_shares(fold, corpus, shares):
        if r.start == 0:
            lines_before = 0
        if isinstance(outcome, Exception):
            if isinstance(outcome, MalformedLine):
                outcome.lineno += lines_before
            raise outcome
        part, part_report = outcome
        report.merge(part_report, lines_before)
        lines_before += part_report.lines
        yield part


def corpus_stats(corpus: Corpus, workers: int, report: ParseReport) -> CorpusStats:
    """Exact counts over every tweet of the corpus, read as :func:`fold_corpus` reads it."""
    stats = CorpusStats()
    for part in fold_corpus(corpus, _count_stats, workers, report):
        stats.merge(part)
    return stats
