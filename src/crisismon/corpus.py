r"""Tweet corpus ingestion: JSONL parsing, text normalization, corpus statistics.

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
match without it. Text that is ASCII after the substitutions skips NFKC and
uses an ASCII token pattern: NFKC leaves ASCII unchanged, ``lower()`` keeps
it ASCII, and on ASCII the letter class ``[^\W\d_]`` is ``[A-Za-z]`` and
``\d`` is ``[0-9]``. ``Tweet`` and ``TokenizedDoc`` are named tuples, cheaper
to build than dataclasses and just as immutable.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, NamedTuple

from .errors import FormatError

log = logging.getLogger(__name__)

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
# The same tokens on ASCII text, where [^\W\d_] is [A-Za-z] and \d is [0-9].
_ASCII_TOKEN_RE = re.compile(r"[a-z]+|[0-9]+")
_HAS_HASHTAG_RE = re.compile(r"#\w")

_REQUIRED_KEYS = ("id", "created_at", "text", "kind", "user_id")


class Tweet(NamedTuple):
    """One raw post with its day bucket already resolved."""

    id: str
    created_at: datetime
    date: date
    text: str
    kind: str
    user_id: str
    has_hashtag: bool
    lang: str = ""


class TokenizedDoc(NamedTuple):
    """Normalized token sequence of a tweet, keyed by its calendar day."""

    tweet_id: str
    date: date
    tokens: tuple[str, ...]


@dataclass
class ParseReport:
    """Mutable sink for lenient-mode parse outcomes."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    examples: list[tuple[int, str]] = field(default_factory=list)

    MAX_EXAMPLES = 10

    def record_skip(self, lineno: int, reason: str) -> None:
        self.skipped += 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append((lineno, reason))


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
        text = _HASHTAG_RE.sub(
            lambda m: " " + " ".join(split_hashtag(m.group(1))) + " ", text
        )
    # NFKC leaves ASCII unchanged and lower() keeps it ASCII.
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text.lower())
    text = unicodedata.normalize("NFKC", text)
    return _TOKEN_RE.findall(text.lower())


def _parse_created_at(raw: str) -> datetime:
    # ISO-8601; a trailing 'Z' is accepted on Python 3.10 too. Naive
    # timestamps are taken as UTC.
    if raw.endswith("Z") or raw.endswith("z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def _tweet_from_obj(obj: dict, tz: timezone) -> Tweet:
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise KeyError(f"missing key {key!r}")
    tid = str(obj["id"])
    if not tid:
        raise ValueError("empty id")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ValueError(f"bad kind {kind!r}")
    created = _parse_created_at(str(obj["created_at"]))
    text = str(obj["text"])
    return Tweet(
        id=tid,
        created_at=created,
        date=created.astimezone(tz).date(),
        text=text,
        kind=kind,
        user_id=str(obj["user_id"]),
        has_hashtag="#" in text and _HAS_HASHTAG_RE.search(text) is not None,
        lang=str(obj.get("lang", "")),
    )


def parse_corpus(
    lines: Iterable[str | bytes],
    tz_offset_hours: int = DEFAULT_TZ_OFFSET_HOURS,
    strict: bool = False,
    report: ParseReport | None = None,
) -> Iterator[Tweet]:
    """Yield Tweets from a line-delimited JSON stream, in file order.

    Blank lines are ignored. In lenient mode (the default) malformed lines
    are skipped and recorded on ``report``; in strict mode the first
    malformed line raises :class:`FormatError` with its line number.
    Byte lines are decoded as UTF-8: invalid bytes are replaced with U+FFFD
    in lenient mode and make the line malformed in strict mode.
    An empty ``id`` is malformed; id uniqueness is trusted, not checked
    (verifying it would require holding every id of a corpus in memory).
    """
    tz = timezone(timedelta(hours=tz_offset_hours))
    errors = "strict" if strict else "replace"
    for lineno, line in enumerate(lines, start=1):
        if report is not None:
            report.lines += 1
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8", errors=errors)
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            tweet = _tweet_from_obj(obj, tz)
        except (ValueError, KeyError, TypeError) as exc:
            msg = f"line {lineno}: {exc}"
            if strict:
                raise FormatError(msg) from exc
            log.debug("skipping malformed corpus line: %s", msg)
            if report is not None:
                report.record_skip(lineno, str(exc))
            continue
        if report is not None:
            report.parsed += 1
        yield tweet


def filter_analyzable(tweet: Tweet) -> bool:
    """True for original tweets and replies; retweets carry no new text."""
    return tweet.kind in (KIND_ORIGINAL, KIND_REPLY)


def tokenize_tweet(tweet: Tweet) -> TokenizedDoc:
    return TokenizedDoc(tweet.id, tweet.date, tuple(preprocess(tweet.text)))


@dataclass
class CorpusStats:
    """Exact corpus counts, folded one tweet at a time."""

    total: int = 0
    n_original: int = 0
    n_retweet: int = 0
    n_reply: int = 0
    n_with_hashtag: int = 0
    per_user: Counter = field(default_factory=Counter)
    per_day: Counter = field(default_factory=Counter)

    def add(self, tweet: Tweet) -> None:
        self.total += 1
        if tweet.kind == KIND_ORIGINAL:
            self.n_original += 1
        elif tweet.kind == KIND_RETWEET:
            self.n_retweet += 1
        else:
            self.n_reply += 1
        if tweet.has_hashtag:
            self.n_with_hashtag += 1
        self.per_user[tweet.user_id] += 1
        self.per_day[tweet.date] += 1

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


def compute_corpus_stats(tweets: Iterable[Tweet]) -> CorpusStats:
    """One-pass exact counting over a finite tweet stream."""
    stats = CorpusStats()
    for tweet in tweets:
        stats.add(tweet)
    return stats
