"""Seeded inputs and ground truth for the benchmark workloads.

``make(name, root, work, seed)`` writes one workload's inputs under ``work``
and returns a :class:`Workload`: the CLI commands to run and the truth the
checks compare their outputs against. The same seed gives the same bytes.

Ground truth comes from the generator's own bookkeeping (which categories it
planted in which tweet, on which local day), never from crisismon code.

Only valid UTF-8 is generated. At the time this benchmark was written, one
invalid byte in a corpus aborts even a lenient ``analyze`` or ``stats`` run
with exit 1 (the corpus file is opened in text mode). That defect is real
and open; the benchmark leaves it out so that its timings measure the
pipeline, not the crash.
"""

from __future__ import annotations

import json
import random
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

TZ_HOURS = -3  # the CLI's default day-bucketing offset
LEAD_DAYS = 6  # the CLI's default event look-back


@dataclass(frozen=True)
class Command:
    label: str  # CLI subcommand, also the traced-time metric suffix
    argv: list[str]  # arguments after ``python -m crisismon``
    out: Path  # the directory the command writes


@dataclass
class Truth:
    """What correct outputs contain, as the generator planted it."""

    start: date
    end: date
    matched: dict[str, list[int]]  # category -> matched docs per day
    totals: list[int]  # analyzable in-range docs per day
    dropped: int  # analyzable docs outside [start, end]
    burst: date | None = None  # first day of a planted joint burst
    stats: dict | None = None  # expected stats.json
    expand_top: dict[str, str] = field(default_factory=dict)  # construct -> category


@dataclass
class Workload:
    commands: list[Command]
    categories: Path  # the category set the setup probe loads
    corpus_lines: int
    truth: Truth


def make(name: str, root: Path, work: Path, seed: int) -> Workload:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(BUILDERS)}")
    work.mkdir(parents=True, exist_ok=True)
    return builder(root, work, random.Random(f"{name}:{seed}"))


# -- helpers -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"[^\W\d_]+|\d+")


def tokens_of(text: str) -> list[str]:
    """Tokens of plain text (no URLs, mentions or hashtags), as documented."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFKC", text).lower())


def _words(rng: random.Random, n: int, taken: set[str], syllables=(3, 4)) -> list[str]:
    """``n`` fresh pseudo-words of letters only, none in ``taken``."""
    cons, vows = "bcdfghjklmnprstvz", "aeiou"
    out = []
    while len(out) < n:
        w = "".join(rng.choice(cons) + rng.choice(vows)
                    for _ in range(rng.randint(*syllables)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_json(path: Path, obj) -> Path:
    """Write ``obj`` as JSON; paths in it become strings."""
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=1, default=str),
                    encoding="utf-8")
    return path


def _record(tid: str, utc: datetime, text: str, kind: str, user: str,
            stamp: str = "Z") -> dict:
    """A tweet dict whose ``created_at`` denotes the instant ``utc``."""
    if stamp == "Z":
        created = utc.strftime("%Y-%m-%dT%H:%M:%SZ")
    elif stamp == "naive":  # naive timestamps are read as UTC
        created = utc.replace(tzinfo=None).isoformat()
    else:  # "+HH:MM" / "-HH:MM": the same instant at that offset
        sign = 1 if stamp[0] == "+" else -1
        off = timedelta(hours=int(stamp[1:3]), minutes=int(stamp[4:6])) * sign
        created = utc.astimezone(timezone(off)).isoformat()
    return {"id": tid, "created_at": created, "text": text, "kind": kind,
            "user_id": user, "lang": "es"}


def _local_day(utc: datetime) -> date:
    return (utc + timedelta(hours=TZ_HOURS)).date()


def _count_truth(start: date, end: date, names: list[str], docs) -> tuple[dict, list, int]:
    """Fold ``(local_day, planted_category_set)`` of analyzable docs into counts."""
    n_days = (end - start).days + 1
    matched = {c: [0] * n_days for c in names}
    totals = [0] * n_days
    dropped = 0
    for day, cats in docs:
        i = (day - start).days
        if not 0 <= i < n_days:
            dropped += 1
            continue
        totals[i] += 1
        for c in cats:
            matched[c][i] += 1
    return matched, totals, dropped


# -- burst-serial ------------------------------------------------------------

BURST_DAYS, BURST_PER_DAY = 180, 500
BURST_START = date(2020, 3, 1)


def build_burst(root: Path, work: Path, rng: random.Random) -> Workload:
    """The ROADMAP reference corpus: ``tests/synth.planted_burst_lines``."""
    sys.path.insert(0, str(root / "tests"))
    try:
        import synth
    finally:
        sys.path.pop(0)
    burst_day = rng.randrange(BURST_DAYS // 6, BURST_DAYS - BURST_DAYS // 6)
    lines = synth.planted_burst_lines(
        seed=rng.randrange(2**31), n_days=BURST_DAYS, per_day=BURST_PER_DAY,
        burst_start=burst_day, start=BURST_START,
    )
    corpus = work / "corpus.jsonl"
    _write_lines(corpus, lines)
    cats = work / "categories.json"
    _write_json(cats, synth.burst_category_set())

    # Every line is a well-formed original posted at noon UTC, so its local
    # day is its UTC day; a marker matches when its token is one of the words.
    marker_of = {tok: name for name, tok in synth.BURST_MARKERS.items()}
    docs = []
    for line in lines:
        rec = json.loads(line)
        day = date.fromisoformat(rec["created_at"][:10])
        docs.append((day, {marker_of[w] for w in rec["text"].split() if w in marker_of}))
    end = BURST_START + timedelta(days=BURST_DAYS - 1)
    names = sorted(synth.BURST_MARKERS)
    matched, totals, dropped = _count_truth(BURST_START, end, names, docs)

    out = work / "out" / "analyze"
    cfg = _write_json(work / "analyze.json", dict(
        corpus=[corpus], categories=cats, date_from=BURST_START.isoformat(),
        date_to=end.isoformat(), out=out,
    ))
    return Workload(
        commands=[Command("analyze", ["analyze", "--config", str(cfg), "--workers", "1"], out)],
        categories=cats,
        corpus_lines=len(lines),
        truth=Truth(BURST_START, end, matched, totals, dropped,
                    burst=BURST_START + timedelta(days=burst_day)),
    )


# -- mixed-default -----------------------------------------------------------

MIXED_LINES, MIXED_FILES = 32_000, 4
MIXED_START, MIXED_END = date(2020, 3, 1), date(2020, 6, 30)

_FILLER_ES = (
    "el la los las un una que con para por sin todo todos hoy ayer gente casa "
    "calle barrio noche tarde semana año mate fútbol café ciudad amigos familia "
    "trabajo escuela plaza perro gato lluvia sol frío calor colectivo tren subte "
    "mercado almacén verdura pan leche vino música radio serie libro charla "
    "vecinos abuela primo partido club cancha asado feriado domingo lunes martes "
    "jueves viernes sábado balcón aplausos cumpleaños videollamada huerta"
).split()
_EMOJI = ["😷", "😱", "🙏", "💔", "🇦🇷", "❤️", "🏠"]
_FULLWIDTH = {c: chr(ord(c) - ord("a") + 0xFF41) for c in "abcdefghijklmnopqrstuvwxyz"}


def _variant(term: str, rng: random.Random) -> str:
    """One surface form of ``term`` that normalizes back to its tokens."""
    words = term.split()
    forms = ["plain", "plain", "upper", "title", "nfd", "fullwidth", "emoji",
             "camel_tag", "underscore_tag"]
    if "fi" in term:
        forms.append("ligature")
    form = rng.choice(forms)
    if form == "upper":
        return term.upper()
    if form == "title":
        return " ".join(w.capitalize() for w in words)
    if form == "nfd":  # decomposed accents; NFKC recomposes them
        return unicodedata.normalize("NFD", term)
    if form == "fullwidth":
        return "".join(_FULLWIDTH.get(c, c) for c in term)
    if form == "emoji":  # glued emoji is a separator, not part of the token
        return term + rng.choice(_EMOJI)
    if form == "camel_tag":
        return "#" + "".join(w.capitalize() for w in words)
    if form == "underscore_tag":
        return "#" + "_".join(words)
    if form == "ligature":
        return term.replace("fi", "ﬁ")
    return term


def _trap(term: str, rng: random.Random) -> str:
    """Term text that the normalizer must *not* match."""
    slug = term.replace(" ", "_")
    return rng.choice([
        f"https://noticias.example.com/{slug}?id={rng.randrange(999)}",
        f"www.{slug.replace('_', '')}.gob.ar/info",
        f"@{slug}",
        "#" + term.replace(" ", "") + "ya",  # one lowercase run: one token
    ])


def _malformed(rec: dict, rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:  # truncated mid-record: never a complete JSON object
        line = json.dumps(rec, ensure_ascii=False)
        return line[: rng.randrange(5, len(line) - 2)]
    bad = dict(rec)
    if kind == 1:
        del bad["kind"]
    elif kind == 2:
        bad["kind"] = "quote"
    elif kind == 3:
        return json.dumps([rec["id"], rec["text"]], ensure_ascii=False)
    elif kind == 4:
        bad["created_at"] = "2020-02-30T10:00:00Z"
    else:
        bad["id"] = ""
    return json.dumps(bad, ensure_ascii=False)


def build_mixed(root: Path, work: Path, rng: random.Random) -> Workload:
    cats_path = root / "data" / "categories" / "demo_categories_es.json"
    cat_terms = json.loads(cats_path.read_text(encoding="utf-8"))["categories"]
    names = sorted(cat_terms)
    term_words = {w for terms in cat_terms.values() for t in terms for w in tokens_of(t)}
    if term_words.intersection(_FILLER_ES):
        raise ValueError(f"filler words that are term words: {term_words & set(_FILLER_ES)}")
    owner = {t: c for c, terms in cat_terms.items() for t in terms}
    all_terms = sorted(owner)

    n_days = (MIXED_END - MIXED_START).days + 1
    gap = rng.randrange(20, n_days - 20)  # three days with no tweets at all
    days = [MIXED_START + timedelta(days=i) for i in range(n_days)
            if not gap <= i < gap + 3]
    outside = [MIXED_START - timedelta(days=2), MIXED_END + timedelta(days=1)]
    users = [f"u{i}" for i in range(4000)]
    stamps = ["Z", "Z", "-03:00", "+00:00", "+05:30", "naive"]

    lines: list[str] = []
    valid: list[dict] = []
    docs = []
    for n in range(MIXED_LINES):
        r = rng.random()
        if r < 0.003:
            lines.append(rng.choice(["", "   ", "\t"]))
            continue
        day = rng.choice(outside) if r < 0.004 else rng.choice(days)
        if rng.random() < 0.15:  # within minutes of local midnight
            local = datetime.combine(day, datetime.min.time()) + timedelta(
                seconds=rng.choice([rng.randrange(0, 300), 86400 - rng.randrange(1, 300)]))
        else:
            local = datetime.combine(day, datetime.min.time()) + timedelta(
                seconds=rng.randrange(86400))
        utc = (local - timedelta(hours=TZ_HOURS)).replace(tzinfo=timezone.utc)
        kr = rng.random()
        kind = "retweet" if kr < 0.3 else "reply" if kr < 0.4 else "original"

        parts = rng.sample(_FILLER_ES, rng.randint(5, 12))
        planted = set()
        for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
            cat = rng.choice(names)
            term = rng.choice(cat_terms[cat])
            parts.insert(rng.randrange(len(parts) + 1), _variant(term, rng))
            planted.add(owner[term])
        if rng.random() < 0.15:
            parts.insert(rng.randrange(len(parts) + 1), _trap(rng.choice(all_terms), rng))
        if rng.random() < 0.2:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_EMOJI))
        if rng.random() < 0.1:
            parts.append("#QuedateEnCasa" if rng.random() < 0.5 else "#Covid19")
        text = " ".join(parts)
        if kind == "retweet":
            text = f"RT @{rng.choice(users)}: {text}"
        elif kind == "reply":
            text = f"@{rng.choice(users)} {text}"
        author = rng.choice(users[: rng.choice([50, len(users)])])  # half from 50 heavy users
        rec = _record(f"m{n}", utc, text, kind, author, stamp=rng.choice(stamps))
        if rng.random() < 0.005:
            lines.append(_malformed(rec, rng))
            continue
        lines.append(json.dumps(rec, ensure_ascii=False))
        valid.append(rec)
        if kind != "retweet":
            docs.append((_local_day(utc), planted))

    files = []
    per_file = -(-len(lines) // MIXED_FILES)
    for i in range(MIXED_FILES):
        path = work / f"corpus-{i}.jsonl"
        _write_lines(path, lines[i * per_file : (i + 1) * per_file])
        files.append(path)

    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    expected_stats = json.loads(json.dumps(oracles.naive_stats(valid, tz_hours=TZ_HOURS)))
    matched, totals, dropped = _count_truth(MIXED_START, MIXED_END, names, docs)

    stats_out, analyze_out = work / "out" / "stats", work / "out" / "analyze"
    common = dict(corpus=files, date_from=MIXED_START.isoformat(),
                  date_to=MIXED_END.isoformat())
    stats_cfg = _write_json(work / "stats.json", dict(out=stats_out, **common))
    analyze_cfg = _write_json(work / "analyze.json", dict(
        out=analyze_out, categories=cats_path,
        events=root / "data" / "events" / "emotions.csv",
        stages=root / "data" / "stages" / "argentina_2020.csv", **common,
    ))
    return Workload(
        commands=[Command("stats", ["stats", "--config", str(stats_cfg)], stats_out),
                  Command("analyze", ["analyze", "--config", str(analyze_cfg)], analyze_out)],
        categories=cats_path,
        corpus_lines=len(lines),
        truth=Truth(MIXED_START, MIXED_END, matched, totals, dropped,
                    stats=expected_stats),
    )


# -- wide-pipeline -----------------------------------------------------------

WIDE_CATEGORIES, WIDE_TERMS, WIDE_MULTIWORD = 100, 50, 0.15
WIDE_DAYS, WIDE_PER_DAY = 120, 150
WIDE_VOCAB, WIDE_DIM, WIDE_K = 6_000, 100, 10
WIDE_START = date(2020, 3, 1)


def _embedding_table(rng: random.Random, seeds: list[str], taken: set[str],
                     extra: list[str]) -> tuple[list[str], np.ndarray, dict[str, list[str]]]:
    """``WIDE_VOCAB`` tokens and vectors with ``WIDE_K`` planted neighbours per seed.

    Seeds and their neighbours come first, then as many ``extra`` words as fit,
    then fresh words; everything but the neighbourhoods is random.
    """
    nprng = np.random.default_rng(rng.randrange(2**63))
    neighbours = {s: _words(rng, WIDE_K, taken) for s in seeds}
    centres = nprng.standard_normal((len(seeds), WIDE_DIM))
    rows = [centres]
    tokens = list(seeds)
    for i, s in enumerate(seeds):
        tokens.extend(neighbours[s])
        rows.append(centres[i] + 0.05 * nprng.standard_normal((WIDE_K, WIDE_DIM)))
    if len(tokens) > WIDE_VOCAB:
        raise ValueError(f"WIDE_VOCAB {WIDE_VOCAB} < {len(tokens)} planted tokens")
    tokens.extend(extra[: WIDE_VOCAB - len(tokens)])
    tokens.extend(_words(rng, WIDE_VOCAB - len(tokens), taken))
    rows.append(nprng.standard_normal((WIDE_VOCAB - sum(len(r) for r in rows), WIDE_DIM)))
    return tokens, np.vstack(rows), neighbours


def build_wide(root: Path, work: Path, rng: random.Random) -> Workload:
    manifest = root / "data" / "lexicons" / "manifest.json"
    constructs = {
        c: json.loads((manifest.parent / p).read_text(encoding="utf-8"))["terms"]
        for c, p in json.loads(manifest.read_text(encoding="utf-8")).items()
    }
    single = {c: sorted({t[0] for t in map(tokens_of, terms) if len(t) == 1})
              for c, terms in constructs.items()}
    seeds = sorted({s for toks in single.values() for s in toks})
    taken = set(seeds)

    names = [f"cat{i:03d}" for i in range(WIDE_CATEGORIES)]
    planted_cat = dict(zip(sorted(constructs), rng.sample(names, len(constructs))))
    words_all = _words(rng, WIDE_CATEGORIES * WIDE_TERMS * 2, taken)
    tokens, matrix, neighbours = _embedding_table(rng, seeds, taken, words_all)

    # A construct's planted category holds its seeds' neighbours, round-robin,
    # so expand must rank it first; other categories hold fresh words only.
    cat_terms: dict[str, list[str]] = {}
    pool = iter(words_all)
    for name in names:
        construct = next((c for c, p in planted_cat.items() if p == name), None)
        if construct is not None:
            ring = [neighbours[s][j] for j in range(WIDE_K) for s in single[construct]]
            cat_terms[name] = ring[:WIDE_TERMS]
            continue
        terms = []
        for _ in range(WIDE_TERMS):
            n_words = rng.choice([2, 3]) if rng.random() < WIDE_MULTIWORD else 1
            terms.append(" ".join(next(pool) for _ in range(n_words)))
        cat_terms[name] = terms
    filler = _words(rng, 400, taken)
    owners: dict[str, set[str]] = {}  # a seed two constructs share plants in both
    for name, terms in cat_terms.items():
        for t in terms:
            owners.setdefault(t, set()).add(name)

    cats = work / "categories.json"
    _write_json(cats, {"name": "wide", "categories": cat_terms})
    emb = work / "embeddings.txt"
    with emb.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {WIDE_DIM}\n")
        for tok, row in zip(tokens, matrix):
            fh.write(tok + " " + " ".join(f"{x:.5f}" for x in row.tolist()) + "\n")

    end = WIDE_START + timedelta(days=WIDE_DAYS - 1)
    burst = rng.randrange(WIDE_DAYS // 6, WIDE_DAYS - WIDE_DAYS // 6)
    lines, docs = [], []
    for d in range(WIDE_DAYS):
        day = WIDE_START + timedelta(days=d)
        extra = 3 if burst <= d < burst + 3 else 0
        for _ in range(WIDE_PER_DAY):
            utc = datetime(day.year, day.month, day.day, 12, tzinfo=timezone.utc) + \
                timedelta(seconds=rng.randrange(-3600, 3600))
            parts = rng.sample(filler, rng.randint(6, 12))
            planted = set()
            for _ in range(rng.choice([0, 1, 1, 2]) + extra):
                term = rng.choice(cat_terms[rng.choice(names)])
                parts.insert(rng.randrange(len(parts) + 1), term)
                planted |= owners[term]
            kind = "retweet" if rng.random() < 0.1 else "original"
            rec = _record(f"w{len(lines)}", utc, " ".join(parts), kind, f"u{rng.randrange(3000)}")
            lines.append(json.dumps(rec))
            if kind != "retweet":
                docs.append((_local_day(utc), planted))
    corpus = work / "corpus.jsonl"
    _write_lines(corpus, lines)
    matched, totals, dropped = _count_truth(WIDE_START, end, names, docs)

    event_days = sorted(rng.sample(range(WIDE_DAYS), 40) + [burst])
    events = work / "events.csv"
    _write_lines(events, ["date,description"] + [
        f"{(WIDE_START + timedelta(days=d)).isoformat()},event on day {d}" for d in event_days])
    stages = work / "stages.csv"
    cuts = sorted(rng.sample(range(1, WIDE_DAYS - 1), 5))
    bounds = list(zip([0] + cuts, cuts + [WIDE_DAYS - 1]))
    _write_lines(stages, ["stage,start,end"] + [
        f"stage{i},{(WIDE_START + timedelta(days=a)).isoformat()},"
        f"{(WIDE_START + timedelta(days=b)).isoformat()}" for i, (a, b) in enumerate(bounds)])

    expand_out, analyze_out = work / "out" / "expand", work / "out" / "analyze"
    expand_cfg = _write_json(work / "expand.json", dict(
        manifest=manifest, embeddings=emb, categories=cats, out=expand_out))
    analyze_cfg = _write_json(work / "analyze.json", dict(
        corpus=[corpus], categories=cats, events=events, stages=stages,
        date_from=WIDE_START.isoformat(), date_to=end.isoformat(), out=analyze_out,
    ))
    return Workload(
        commands=[Command("expand", ["expand", "--config", str(expand_cfg)], expand_out),
                  Command("analyze", ["analyze", "--config", str(analyze_cfg),
                                      "--workers", "1"], analyze_out)],
        categories=cats,
        corpus_lines=len(lines),
        truth=Truth(WIDE_START, end, matched, totals, dropped,
                    burst=WIDE_START + timedelta(days=burst), expand_top=planted_cat),
    )


BUILDERS = {"burst-serial": build_burst, "mixed-default": build_mixed,
            "wide-pipeline": build_wide}
