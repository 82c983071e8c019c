"""Command-line pipeline: stats, expand, analyze, render.

Runs are driven by a JSON config file; command-line flags override config
values so a recorded config reproduces a run exactly. Each subcommand takes
only the flags it reads; a flag sets the config field of its name. A config
value must have its field's type: a string or list of strings, ``null`` only
where the field allows it, an integer (not ``true``/``false``) for an int,
an integer or float for a float, a boolean for a bool; anything else is a
format error naming the key. Before a command opens any input,
``RunConfig.check`` checks every config rule that needs none, on every key,
whether the command reads it or not. Exit codes: 0 on success, 1 for
validation or contract failures (a broken config rule, an empty category
set, a category named ``series.JOINT``), 2 for I/O and format failures
(missing file, malformed input, a wrongly typed config value, a corpus
worker that died). The prevalence of every category is one ``Series``
named by category; the commands select the configured markers' rows from it
by name.
"""

from __future__ import annotations

import argparse
import math
import reprlib
import sys
from datetime import date
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_origin, get_type_hints

from . import corpus as corpus_mod
from . import matching, reporting, series
from .errors import FormatError, iso_date, read_json, write_json
from .expansion import associate_categories, expand_lexicon, load_embeddings
from .lexicon import (load_category_set, load_manifest, save_lexicon,
                      save_marker_mapping)


#: The longest smoothing window, in days: a year. The paper smooths by 7.
MAX_WINDOW = 366


class RunConfig(NamedTuple):
    """Declarative description of one pipeline run; ``_replace`` sets fields."""

    corpus: list[str] = ()  # a tuple: no config can change the shared default
    manifest: str | None = None
    categories: str | None = None
    embeddings: str | None = None
    events: str | None = None
    stages: str | None = None
    markers: list[str] | None = None  # heatmap row order; default: all, sorted
    k: int = 10
    m: int = 10
    window: int = 7
    sigma_mult: float = 1.0
    lead: int = reporting.DEFAULT_EVENT_LEAD_DAYS
    date_from: str | None = None
    date_to: str | None = None
    tz_offset_hours: int = corpus_mod.DEFAULT_TZ_OFFSET_HOURS
    out: str = "out"
    workers: int | None = None  # most processes reading the corpus; None: usable CPUs
    strict: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        unknown = set(obj) - set(_FIELD_TYPES)
        if unknown:
            raise FormatError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in obj.items():
            if not _fits(value, _FIELD_TYPES[key]):
                raise FormatError(f"{path}: config key {key!r} must be "
                                  f"{_type_name(_FIELD_TYPES[key])}, got {reprlib.repr(value)}")
        return cls(**obj)

    def check(self, command: str) -> tuple[date | None, date | None]:
        """Check every rule that needs no input, before ``command`` opens one.

        Every key is checked, whether ``command`` reads it or not. Returns
        ``date_from`` and ``date_to`` parsed, each None when unset.
        """
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be >= 1")
        if self.markers == []:
            raise ValueError("markers must name at least one category, or be null")
        for key, what in _NEEDS[command].items():
            if not getattr(self, key):
                raise ValueError(f"config needs {what}")
        lo, hi = (_day(key, getattr(self, key)) for key in ("date_from", "date_to"))
        if lo and hi and lo > hi:
            raise ValueError(f"date_from {lo} after date_to {hi}")
        if lo and hi and (n := (hi - lo).days + 1) > matching.MAX_DAYS:
            raise ValueError(f"date range {lo}..{hi} spans {n} days, "
                             f"more than {matching.MAX_DAYS}")
        if command == "analyze" and lo == hi:
            raise ValueError(f"date range {lo}..{hi} needs at least 2 days")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window > MAX_WINDOW:
            raise ValueError(f"window must be <= {MAX_WINDOW}, got {self.window}")
        if self.lead < 0:
            raise ValueError("lead must be >= 0")
        if not math.isfinite(self.sigma_mult):
            raise ValueError(f"sigma_mult must be finite, got {self.sigma_mult}")
        if not -23 <= self.tz_offset_hours <= 23:  # whole hours that ``timezone`` takes
            raise ValueError(f"tz_offset_hours must be within -23..23, got {self.tz_offset_hours}")
        return lo, hi


_FIELD_TYPES = get_type_hints(RunConfig)

# What each command cannot run without: a key, and how a missing one is named.
_DATES = "date_from and date_to (or --from/--to)"
_NEEDS = {
    "stats": {"corpus": "at least one corpus path"},
    "expand": {"manifest": "a lexicon manifest path", "embeddings": "an embeddings path",
               "categories": "a category-set path"},
    "analyze": {"categories": "a category-set path", "date_from": _DATES, "date_to": _DATES,
                "corpus": "at least one corpus path"},
    "render": {},
}


def _fits(value: object, hint: object) -> bool:
    """Whether a JSON value has the annotated type; a bool is no int."""
    if hint is float:
        return type(value) in (int, float)
    if get_origin(hint) is list:
        return type(value) is list and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # a union such as ``str | None``
        return any(_fits(value, a) for a in get_args(hint))
    return type(value) is hint


def _type_name(hint: object) -> str:
    """A field's type as its annotation spells it: ``int``, ``list[str]``, ``str | None``."""
    return hint.__name__ if type(hint) is type else repr(hint)


def _day(key: str, text: str | None) -> date | None:
    """A configured date, None when unset; one that is not ISO is named by its key."""
    try:
        return iso_date(text) if text else None
    except ValueError:
        raise ValueError(f"{key} must be an ISO date (YYYY-MM-DD), got {text!r}") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Absent flags leave no attribute, so only the given ones override.
    given = vars(args)
    cfg = RunConfig.from_file(given["config"]) if "config" in given else RunConfig()
    return cfg._replace(**{k: v for k, v in given.items() if k in _FIELD_TYPES})


def _markers(markers: list[str] | None, names: Sequence[str]) -> list[str]:
    """The configured markers, each one of ``names`` (default: all of them)."""
    markers = markers or list(names)
    unknown = [m for m in markers if m not in names]
    if unknown:
        raise ValueError(f"unknown markers in config: {', '.join(unknown)}")
    repeated = sorted({m for m in markers if markers.count(m) > 1})
    if repeated:
        raise ValueError(f"duplicate markers in config: {', '.join(repeated)}")
    return markers


def _fold(cfg: RunConfig, fold: Callable, *args):
    """``fold(corpus, *args, workers=, report=)`` over the configured corpus;
    its malformed lines are reported on stderr."""
    report = corpus_mod.ParseReport()
    corpus = corpus_mod.Corpus(tuple(cfg.corpus), cfg.tz_offset_hours, cfg.strict)
    result = fold(corpus, *args, workers=cfg.workers or corpus_mod.usable_cpus(),
                  report=report)
    if report.skipped:
        print(f"skipped {report.skipped} malformed line(s) of {report.lines}", file=sys.stderr)
        for lineno, reason, source in report.examples:
            print(f"  {corpus_mod.where(source, lineno)}: {reason}", file=sys.stderr)
    return result


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stats(cfg: RunConfig) -> int:
    """Corpus statistics over all tweets (retweets included) as JSON."""
    cfg.check("stats")
    stats = _fold(cfg, corpus_mod.corpus_stats)
    out = _out_dir(cfg) / "stats.json"
    write_json(out, stats.to_json_dict())
    print(out)
    return 0


def cmd_expand(cfg: RunConfig) -> int:
    """Expand every manifest lexicon and rank categories against it."""
    cfg.check("expand")
    seeds = load_manifest(cfg.manifest)
    table = load_embeddings(cfg.embeddings)
    cats = load_category_set(cfg.categories)
    out = _out_dir(cfg)
    (out / "expanded").mkdir(exist_ok=True)
    (out / "mappings").mkdir(exist_ok=True)
    neighbors: dict = {}  # a seed shared by several constructs is queried once
    for construct in sorted(seeds):
        expanded = expand_lexicon(seeds[construct], table, cfg.k, neighbors)
        mapping = associate_categories(expanded, cats, cfg.m)
        save_lexicon(expanded, out / "expanded" / f"{construct}.json")
        save_marker_mapping(mapping, out / "mappings" / f"{construct}.json")
        print(out / "mappings" / f"{construct}.json")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """Fold the corpus into counts per category and day, then report on them."""
    start, end = cfg.check("analyze")
    cats = load_category_set(cfg.categories)
    if not cats.categories:
        raise ValueError(f"{cfg.categories}: no categories")
    if series.JOINT in cats.categories:
        raise ValueError(f"{cfg.categories}: the name {series.JOINT!r} is kept for joint peaks")
    matcher = matching.build_matcher(cats)
    markers = _markers(cfg.markers, matcher.category_names)
    events = reporting.load_events_csv(cfg.events) if cfg.events else None
    stages = reporting.load_stages_csv(cfg.stages) if cfg.stages else None
    agg = _fold(cfg, matching.aggregate_daily, matcher, start, end)
    if agg.dropped:
        print(f"dropped {agg.dropped} document(s) outside {start}..{end}",
              file=sys.stderr)
    return _report(agg, cfg, markers, events, stages)


def _report(agg: matching.DailyAggregate, cfg: RunConfig, markers: list[str],
            events: list[reporting.EventRecord] | None,
            stages: list[reporting.StageWindow] | None) -> int:
    """Derive every ``analyze`` output from the counts alone and write them;
    nothing is written unless all of them could be derived."""
    smoothed, sg = series.smoothed_gradient(
        series.Series(agg.start, agg.categories, agg.percent()), cfg.window)
    peaks_by_marker = series.marker_peaks(sg, cfg.sigma_mult)
    joint = series.joint_peaks(sg.select(markers), cfg.sigma_mult)
    peaks_by_marker[series.JOINT] = joint
    shown = smoothed.select(markers)
    svg = reporting.render_heatmap(shown)
    annotated = (
        reporting.annotate_peaks(joint, events, lead=cfg.lead)
        if events is not None else None
    )
    table = reporting.stage_prevalence_table(shown, stages) if stages is not None else None

    out = _out_dir(cfg)
    matching.write_prevalence_csv(out / "prevalence.csv", agg)
    series.write_series_csv(out / "series.csv", smoothed, sg)
    series.write_peaks_csv(out / "peaks.csv", peaks_by_marker)
    (out / "heatmap.svg").write_bytes(svg)
    if annotated is not None:
        reporting.write_annotations_csv(out / "annotations.csv", annotated)
    if table is not None:
        reporting.write_stage_table_csv(out / "stage_table.csv", table)
    print(out / "peaks.csv")
    return 0


def cmd_render(cfg: RunConfig, input_csv: str, window: int | None = None) -> int:
    """Re-render a heatmap from a previously written prevalence CSV."""
    start, end = cfg.check("render")
    agg = matching.read_prevalence_csv(input_csv)
    markers = _markers(cfg.markers, agg.categories)
    start, end = start or agg.start, end or agg.end
    if not agg.start <= start <= end <= agg.end:
        raise ValueError(f"{input_csv}: cannot render {start}..{end}: "
                         f"its days are {agg.start}..{agg.end}")
    shown = series.smooth(
        series.Series(agg.start, agg.categories, agg.percent()).select(markers), window or 1)
    svg = reporting.render_heatmap(shown.crop(start, end))
    out = _out_dir(cfg) / "heatmap.svg"
    out.write_bytes(svg)
    print(out)
    return 0


# Each flag's dest is the RunConfig field it sets.
_FLAGS = {
    "--from": dict(dest="date_from", metavar="DATE"),
    "--to": dict(dest="date_to", metavar="DATE"),
    "--window": dict(type=int),
    "--k": dict(type=int),
    "--m": dict(type=int),
    "--sigma-mult": dict(dest="sigma_mult", type=float),
    "--workers": dict(type=int, help="most processes that read the corpus (default: "
                                     "every usable CPU); 1 reads it in this process"),
    "--out": dict(),
    "--strict": dict(action="store_true", help="abort on the first malformed corpus line"),
}

_SUBCOMMANDS = {
    "stats": ("corpus statistics JSON", ["--workers", "--out", "--strict"]),
    "expand": ("expand lexicons, rank categories", ["--k", "--m", "--out"]),
    "analyze": ("prevalence, peaks, heatmap, stage table",
                ["--from", "--to", "--window", "--sigma-mult", "--workers", "--out",
                 "--strict"]),
    "render": ("heatmap from a prevalence CSV", ["--from", "--to", "--window", "--out"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisismon",
        description="Lexicon-marker prevalence monitoring over tweet corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON run config; flags override it")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name in ("stats", "analyze"):
            p.add_argument("corpus", nargs="*", help="corpus JSONL paths")
        if name == "render":
            p.add_argument("input", help="prevalence CSV from a previous run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "render":
            return cmd_render(cfg, args.input, window=getattr(args, "window", None))
        commands = {"stats": cmd_stats, "expand": cmd_expand, "analyze": cmd_analyze}
        return commands[args.command](cfg)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
