"""Command-line pipeline: stats, expand, analyze, render.

Runs are driven by a JSON config file; command-line flags override config
values so a recorded config reproduces a run exactly. Exit codes: 0 on
success, 1 for validation or contract failures (bad date range, empty
lexicon), 2 for I/O and parse failures (missing file, malformed input).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Iterator

from . import corpus as corpus_mod
from . import matching, reporting, series
from .errors import FormatError
from .expansion import (ExpansionConfig, associate_categories, expand_lexicon,
                        load_embeddings)
from .lexicon import (load_category_set, load_manifest, save_lexicon,
                      save_marker_mapping)

log = logging.getLogger(__name__)


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
    workers: int = 1  # accepted for recorded configs; has no effect
    strict: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise FormatError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**obj)

    def date_range(self) -> tuple[date, date]:
        if not self.date_from or not self.date_to:
            raise ValueError("config needs date_from and date_to (or --from/--to)")
        lo = date.fromisoformat(self.date_from)
        hi = date.fromisoformat(self.date_to)
        if lo > hi:
            raise ValueError(f"date_from {lo} after date_to {hi}")
        return lo, hi


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        "date_from": args.date_from,
        "date_to": args.date_to,
        "window": args.window,
        "k": args.k,
        "m": args.m,
        "sigma_mult": args.sigma_mult,
        "workers": args.workers,
        "out": args.out,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "strict", False):
        cfg.strict = True
    if getattr(args, "corpus", None):
        cfg.corpus = args.corpus
    return cfg


def _iter_corpus_lines(paths: list[str]) -> Iterator[bytes]:
    # Binary mode: parse_corpus decodes each line, so a bad byte is one
    # malformed line rather than an error that ends the whole read.
    for path in paths:
        with open(path, "rb") as fh:
            yield from fh


def _load_docs(
    cfg: RunConfig, report: corpus_mod.ParseReport
) -> Iterator[corpus_mod.TokenizedDoc]:
    """Lazy stream of analyzable documents; parse outcomes land on ``report``."""
    if not cfg.corpus:
        raise ValueError("config needs at least one corpus path")
    return (
        corpus_mod.tokenize_tweet(t)
        for t in corpus_mod.parse_corpus(
            _iter_corpus_lines(cfg.corpus),
            tz_offset_hours=cfg.tz_offset_hours,
            strict=cfg.strict,
            report=report,
        )
        if corpus_mod.filter_analyzable(t)
    )


def _report_skips(report: corpus_mod.ParseReport) -> None:
    if report.skipped:
        print(
            f"skipped {report.skipped} malformed line(s) of {report.lines}",
            file=sys.stderr,
        )
        for lineno, reason in report.examples:
            print(f"  line {lineno}: {reason}", file=sys.stderr)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stats(cfg: RunConfig) -> int:
    """Corpus statistics over all tweets (retweets included) as JSON."""
    if not cfg.corpus:
        raise ValueError("config needs at least one corpus path")
    report = corpus_mod.ParseReport()
    stats = corpus_mod.compute_corpus_stats(
        corpus_mod.parse_corpus(
            _iter_corpus_lines(cfg.corpus),
            tz_offset_hours=cfg.tz_offset_hours,
            strict=cfg.strict,
            report=report,
        )
    )
    _report_skips(report)
    out = _out_dir(cfg) / "stats.json"
    out.write_text(
        json.dumps(stats.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(out)
    return 0


def cmd_expand(cfg: RunConfig) -> int:
    """Expand every manifest lexicon and rank categories against it."""
    if not cfg.manifest:
        raise ValueError("config needs a lexicon manifest path")
    if not cfg.embeddings:
        raise ValueError("config needs an embeddings path")
    if not cfg.categories:
        raise ValueError("config needs a category-set path")
    seeds = load_manifest(cfg.manifest)
    table = load_embeddings(cfg.embeddings)
    cats = load_category_set(cfg.categories)
    ecfg = ExpansionConfig(k=cfg.k, m=cfg.m)
    out = _out_dir(cfg)
    (out / "expanded").mkdir(exist_ok=True)
    (out / "mappings").mkdir(exist_ok=True)
    for construct in sorted(seeds):
        expanded = expand_lexicon(seeds[construct], table, ecfg)
        mapping = associate_categories(expanded, cats, ecfg)
        save_lexicon(expanded, out / "expanded" / f"{construct}.json")
        save_marker_mapping(mapping, out / "mappings" / f"{construct}.json")
        print(out / "mappings" / f"{construct}.json")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """Match, aggregate, detect peaks, render the heatmap, report stages."""
    if not cfg.categories:
        raise ValueError("config needs a category-set path")
    start, end = cfg.date_range()
    cats = load_category_set(cfg.categories)
    marker_order = cfg.markers if cfg.markers else sorted(cats.categories)
    unknown = [m for m in marker_order if m not in cats.categories]
    if unknown:
        raise ValueError(f"unknown markers in config: {', '.join(unknown)}")
    acfg = series.AnalysisConfig(window=cfg.window, sigma_mult=cfg.sigma_mult)
    events = reporting.load_events_csv(cfg.events) if cfg.events else None
    stages = reporting.load_stages_csv(cfg.stages) if cfg.stages else None
    matcher = matching.build_matcher(cats)
    report = corpus_mod.ParseReport()
    agg = matching.aggregate_daily(_load_docs(cfg, report), matcher, start, end)
    _report_skips(report)
    if agg.dropped:
        print(f"dropped {agg.dropped} document(s) outside {start}..{end}",
              file=sys.stderr)

    # Everything is computed before the first file is written, so a run that
    # fails validation (a negative lead, say) leaves no output behind.
    smoothed = {
        name: series.smooth(prev.to_series(), acfg.window)
        for name, prev in agg.prevalence.items()
    }
    sg = {name: series.smoothed_gradient(s, acfg.window) for name, s in smoothed.items()}
    derived = {
        name: {"smoothed": smoothed[name], "smoothed_gradient": sg[name]}
        for name in smoothed
    }
    peaks_by_marker = {name: series.marker_peaks(s, acfg) for name, s in sg.items()}
    joint = series.joint_peaks([sg[m] for m in marker_order], acfg)
    peaks_by_marker["JOINT"] = joint
    spec = reporting.HeatmapSpec(markers=marker_order, start=start, end=end)
    svg = reporting.render_heatmap(smoothed, spec)
    annotated = (
        reporting.annotate_peaks(joint, events, lead=cfg.lead)
        if events is not None else None
    )
    table = (
        reporting.stage_prevalence_table({m: smoothed[m] for m in marker_order}, stages)
        if stages is not None else None
    )

    out = _out_dir(cfg)
    matching.write_prevalence_csv(out / "prevalence.csv", agg)
    series.write_series_csv(out / "series.csv", derived)
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
    raw = matching.read_prevalence_csv(input_csv)
    if not raw:
        raise ValueError(f"{input_csv}: no prevalence rows")
    if window and window > 1:
        shown = {name: series.smooth(s, window) for name, s in raw.items()}
    else:
        shown = raw
    marker_order = cfg.markers if cfg.markers else sorted(shown)
    any_series = next(iter(shown.values()))
    start = date.fromisoformat(cfg.date_from) if cfg.date_from else any_series.start
    end = (
        date.fromisoformat(cfg.date_to)
        if cfg.date_to
        else any_series.date_of(len(any_series) - 1)
    )
    spec = reporting.HeatmapSpec(markers=marker_order, start=start, end=end)
    out = _out_dir(cfg) / "heatmap.svg"
    out.write_bytes(reporting.render_heatmap(shown, spec))
    print(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisismon",
        description="Lexicon-marker prevalence monitoring over tweet corpora",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run config; flags override it")
        p.add_argument("--from", dest="date_from", metavar="DATE")
        p.add_argument("--to", dest="date_to", metavar="DATE")
        p.add_argument("--window", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--sigma-mult", dest="sigma_mult", type=float)
        p.add_argument("--workers", type=int,
                       help="accepted for compatibility; has no effect "
                            "(the corpus is read in one process)")
        p.add_argument("--out")
        p.add_argument("--strict", action="store_true",
                       help="abort on the first malformed corpus line")

    p_stats = sub.add_parser("stats", help="corpus statistics JSON")
    common(p_stats)
    p_stats.add_argument("corpus", nargs="*", help="corpus JSONL paths")

    p_expand = sub.add_parser("expand", help="expand lexicons, rank categories")
    common(p_expand)

    p_analyze = sub.add_parser(
        "analyze", help="prevalence, peaks, heatmap, stage table"
    )
    common(p_analyze)
    p_analyze.add_argument("corpus", nargs="*", help="corpus JSONL paths")

    p_render = sub.add_parser("render", help="heatmap from a prevalence CSV")
    common(p_render)
    p_render.add_argument("input", help="prevalence CSV from a previous run")

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
        if args.command == "stats":
            return cmd_stats(cfg)
        if args.command == "expand":
            return cmd_expand(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "render":
            return cmd_render(cfg, args.input, window=args.window)
        raise AssertionError(f"unhandled command {args.command}")
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
