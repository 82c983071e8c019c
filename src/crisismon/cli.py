"""Command-line pipeline: stats, expand, analyze, render.

Runs are driven by a JSON config file; command-line flags override config
values so a recorded config reproduces a run exactly. Each subcommand takes
only the flags it reads; a flag sets the config field of its name. A config
value must have its field's type: a string or list of strings, ``null`` only
where the field allows it, an integer (not ``true``/``false``) for an int,
an integer or float for a float, a boolean for a bool; anything else is a
format error naming the key. Exit codes: 0 on success, 1 for validation or
contract failures (bad date range, empty lexicon), 2 for I/O and format
failures (missing file, malformed input, a wrongly typed config value, a
corpus worker that died).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

from . import corpus as corpus_mod
from . import matching, reporting, series
from .errors import FormatError, read_json, write_json
from .expansion import associate_categories, expand_lexicon, load_embeddings
from .lexicon import (load_category_set, load_manifest, save_lexicon,
                      save_marker_mapping)


@dataclass
class RunConfig:
    """Declarative description of one pipeline run."""

    corpus: list[str] = field(default_factory=list)
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
                                  f"{cls.__annotations__[key]}, got {value!r}")
        return cls(**obj)

    def date_range(self) -> tuple[date, date]:
        if not self.date_from or not self.date_to:
            raise ValueError("config needs date_from and date_to (or --from/--to)")
        lo = date.fromisoformat(self.date_from)
        hi = date.fromisoformat(self.date_to)
        if lo > hi:
            raise ValueError(f"date_from {lo} after date_to {hi}")
        return lo, hi


_FIELD_TYPES = get_type_hints(RunConfig)


def _fits(value: object, hint: object) -> bool:
    """Whether a JSON value has the annotated type; a bool is no int."""
    if hint is float:
        return type(value) in (int, float)
    if get_origin(hint) is list:
        return type(value) is list and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # a union such as ``str | None``
        return any(_fits(value, a) for a in get_args(hint))
    return type(value) is hint


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Absent flags leave no attribute, so only the given ones override.
    given = vars(args)
    cfg = RunConfig.from_file(given["config"]) if "config" in given else RunConfig()
    return replace(cfg, **{k: v for k, v in given.items() if k in _FIELD_TYPES})


def _workers(cfg: RunConfig) -> int:
    """The cap on corpus-reading processes: ``workers``, else every usable CPU."""
    if cfg.workers is None:
        return corpus_mod.usable_cpus()
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    return cfg.workers


def _corpus(cfg: RunConfig) -> corpus_mod.Corpus:
    if not cfg.corpus:
        raise ValueError("config needs at least one corpus path")
    return corpus_mod.Corpus(tuple(cfg.corpus), cfg.tz_offset_hours, cfg.strict)


def _marker_rows(markers: list[str] | None, names: Sequence[str]) -> list[int]:
    """Row indices in ``names`` of the configured markers (default: all)."""
    if not markers:
        return list(range(len(names)))
    unknown = [m for m in markers if m not in names]
    if unknown:
        raise ValueError(f"unknown markers in config: {', '.join(unknown)}")
    return [names.index(m) for m in markers]


def _report_skips(report: corpus_mod.ParseReport) -> None:
    if report.skipped:
        print(
            f"skipped {report.skipped} malformed line(s) of {report.lines}",
            file=sys.stderr,
        )
        for lineno, reason, source in report.examples:
            print(f"  {corpus_mod.where(source, lineno)}: {reason}", file=sys.stderr)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stats(cfg: RunConfig) -> int:
    """Corpus statistics over all tweets (retweets included) as JSON."""
    workers = _workers(cfg)
    report = corpus_mod.ParseReport()
    stats = corpus_mod.corpus_stats(_corpus(cfg), workers, report)
    _report_skips(report)
    out = _out_dir(cfg) / "stats.json"
    write_json(out, stats.to_json_dict())
    print(out)
    return 0


def cmd_expand(cfg: RunConfig) -> int:
    """Expand every manifest lexicon and rank categories against it."""
    if cfg.k < 1 or cfg.m < 1:
        raise ValueError("k and m must be >= 1")
    if not cfg.manifest:
        raise ValueError("config needs a lexicon manifest path")
    if not cfg.embeddings:
        raise ValueError("config needs an embeddings path")
    if not cfg.categories:
        raise ValueError("config needs a category-set path")
    seeds = load_manifest(cfg.manifest)
    table = load_embeddings(cfg.embeddings)
    cats = load_category_set(cfg.categories)
    out = _out_dir(cfg)
    (out / "expanded").mkdir(exist_ok=True)
    (out / "mappings").mkdir(exist_ok=True)
    for construct in sorted(seeds):
        expanded = expand_lexicon(seeds[construct], table, cfg.k)
        mapping = associate_categories(expanded, cats, cfg.m)
        save_lexicon(expanded, out / "expanded" / f"{construct}.json")
        save_marker_mapping(mapping, out / "mappings" / f"{construct}.json")
        print(out / "mappings" / f"{construct}.json")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """Match, aggregate, detect peaks, render the heatmap, report stages."""
    workers = _workers(cfg)
    if not cfg.categories:
        raise ValueError("config needs a category-set path")
    start, end = cfg.date_range()
    if start == end:
        raise ValueError(f"date range {start}..{end} needs at least 2 days")
    if cfg.window < 1:
        raise ValueError("window must be >= 1")
    cats = load_category_set(cfg.categories)
    if not cats.categories:
        raise ValueError(f"{cfg.categories}: no categories")
    matcher = matching.build_matcher(cats)
    names = matcher.category_names
    rows = _marker_rows(cfg.markers, names)
    markers = [names[i] for i in rows]
    events = reporting.load_events_csv(cfg.events) if cfg.events else None
    stages = reporting.load_stages_csv(cfg.stages) if cfg.stages else None
    report = corpus_mod.ParseReport()
    agg = matching.aggregate_daily(_corpus(cfg), matcher, start, end, workers, report=report)
    _report_skips(report)
    if agg.dropped:
        print(f"dropped {agg.dropped} document(s) outside {start}..{end}",
              file=sys.stderr)

    # Everything is computed before the first file is written, so a run that
    # fails validation (a negative lead, say) leaves no output behind.
    smoothed = series.smooth(series.Series(agg.start, agg.percent()), cfg.window)
    sg = series.smoothed_gradient(smoothed, cfg.window)
    peaks_by_marker = {
        name: series.marker_peaks(sg[i], cfg.sigma_mult) for i, name in enumerate(names)
    }
    joint = series.joint_peaks(sg[rows], cfg.sigma_mult)
    peaks_by_marker["JOINT"] = joint
    svg = reporting.render_heatmap(smoothed[rows], markers, start, end)
    annotated = (
        reporting.annotate_peaks(joint, events, lead=cfg.lead)
        if events is not None else None
    )
    table = (
        reporting.stage_prevalence_table(smoothed[rows], markers, stages)
        if stages is not None else None
    )

    out = _out_dir(cfg)
    matching.write_prevalence_csv(out / "prevalence.csv", agg)
    series.write_series_csv(out / "series.csv", names,
                            {"smoothed": smoothed, "smoothed_gradient": sg})
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
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    agg = matching.read_prevalence_csv(input_csv)
    names = list(agg.prevalence)
    rows = _marker_rows(cfg.markers, names)
    shown = series.Series(agg.start, agg.percent())[rows]
    if window and window > 1:
        shown = series.smooth(shown, window)
    start = date.fromisoformat(cfg.date_from) if cfg.date_from else agg.start
    end = date.fromisoformat(cfg.date_to) if cfg.date_to else agg.end
    svg = reporting.render_heatmap(shown, [names[i] for i in rows], start, end)
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
    parser.add_argument("--verbose", action="store_true", help="debug logging")
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
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
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
