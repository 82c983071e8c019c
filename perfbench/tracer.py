"""Run one crisismon CLI command in-process, timing calls into each layer.

    python perfbench/tracer.py TRACE.json COMMAND [ARGS...]

The command runs through ``crisismon.cli.main`` after wrappers replace the
public functions listed in ``WRAPPED``. A wrapper replaces the function
wherever a crisismon module holds it, so names that ``cli.py`` imports
directly (``load_category_set``, ``load_manifest``, ``load_embeddings``,
``expand_lexicon``, ``associate_categories``, ...) are timed like module
attributes. A function missing from the code is skipped and reads as 0 calls.

Calls at layer boundaries become spans (name, start, end, parent). Calls made
once per tweet, seed or marker are "hot": their time and call count are
summed into the span that caused them instead of one span each. A span's
self time is its duration minus the time of the calls it made, so the self
times of all spans and hot calls add up to the command's traced wall time.

The process pool of ``aggregate_daily`` runs inside one ``matching.aggregate``
span: what its workers do is not traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

# (module, attribute, span name, hot)
WRAPPED = [
    ("corpus", "tokenize_tweet", "corpus.tokenize", True),
    ("corpus", "compute_corpus_stats", "corpus.stats", False),
    ("lexicon", "load_category_set", "lexicon.load", False),
    ("lexicon", "load_manifest", "lexicon.load", False),
    ("lexicon", "save_lexicon", "lexicon.save", False),
    ("lexicon", "save_marker_mapping", "lexicon.save", False),
    ("expansion", "load_embeddings", "expansion.load_embeddings", False),
    ("expansion", "expand_lexicon", "expansion.expand", False),
    ("expansion", "knn", "expansion.knn", True),
    ("expansion", "associate_categories", "expansion.associate", False),
    ("matching", "build_matcher", "matching.build", False),
    ("matching", "aggregate_daily", "matching.aggregate", False),
    ("matching", "write_prevalence_csv", "matching.write", False),
    ("series", "smooth", "series.smooth", True),
    ("series", "smoothed_gradient", "series.smoothed_gradient", True),
    ("series", "find_peaks", "series.find_peaks", True),
    ("series", "marker_peaks", "series.marker_peaks", True),
    ("series", "joint_peaks", "series.joint_peaks", False),
    ("series", "write_series_csv", "series.write", False),
    ("series", "write_peaks_csv", "series.write", False),
    ("reporting", "render_heatmap", "reporting.render", False),
    ("reporting", "stage_prevalence_table", "reporting.stage_table", False),
    ("reporting", "annotate_peaks", "reporting.annotate", False),
    ("reporting", "load_events_csv", "reporting.load", False),
    ("reporting", "load_stages_csv", "reporting.load", False),
    ("reporting", "write_stage_table_csv", "reporting.write", False),
    ("reporting", "write_annotations_csv", "reporting.write", False),
]


class Tracer:
    """In-memory spans and per-name sums of total time, self time and calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        # Open frames: [time spent in callees, id of the enclosing span].
        self.stack: list[list] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, hot: bool) -> list:
        parent = self.stack[-1][1] if self.stack else None
        frame = [0.0, parent if hot else len(self.spans)]
        if not hot:
            self.spans.append({"parent": parent})
        self.stack.append(frame)
        return frame

    def _close(self, name: str, hot: bool, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][0] += dur
        self.total[name] += dur
        self.self_s[name] += dur - frame[0]
        self.calls[name] += 1
        if hot:
            if frame[1] is not None:
                slot = self.spans[frame[1]].setdefault("hot", {}).setdefault(name, [0.0, 0])
                slot[0] += dur
                slot[1] += 1
        else:
            self.spans[frame[1]].update(name=name, start=start, end=end)

    def timed(self, name: str, fn, hot: bool = False, after=None):
        """``fn`` wrapped in a span (or a hot call); ``after(result, args, kwargs)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(hot)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, hot, frame, start, perf())
            if after:
                after(result, args, kwargs)
            return result

        return wrapper

    def timed_iter(self, name: str, it, on_end):
        """Yield from ``it``, timing each ``next()`` as a hot call; ``on_end()`` at its end."""
        while True:
            frame = self._open(True)
            start = perf()
            try:
                item = next(it)
            except StopIteration:
                on_end()
                return
            finally:
                self._close(name, True, frame, start, perf())
            yield item

    def report(self, command: str, exit_code: int) -> dict:
        return {
            "command": command,
            "exit": exit_code,
            "names": {n: {"total_s": self.total[n], "self_s": self.self_s[n],
                          "calls": self.calls[n]} for n in sorted(self.total)},
            "counts": dict(sorted(self.counts.items())),
            "spans": self.spans,
        }


def _count_hooks(tracer: Tracer) -> dict[str, object]:
    """Counters read from results at the layer boundaries, by span name."""
    counts = tracer.counts

    def tokens(doc, *_):
        counts["corpus.tokens"] += len(getattr(doc, "tokens", ()))

    def terms_of_set(cats, *_):
        counts["lexicon.terms"] += sum(len(lex.terms) for lex in cats.categories.values())

    def terms_of_manifest(lexicons, *_):
        counts["lexicon.terms"] += sum(len(lex.terms) for lex in lexicons.values())

    def aggregate(agg, args, kwargs):
        # aggregate_daily(docs, matcher, start, end, workers=1)
        workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
        counts["cli.workers"] = max(counts["cli.workers"], workers)
        dropped = getattr(agg, "dropped", 0)
        counts["matching.dropped"] += dropped
        prevalence = list(getattr(agg, "prevalence", {}).values())
        if prevalence:
            counts["matching.docs"] += int(prevalence[0].total.sum()) + dropped
            counts["matching.matches"] += sum(int(p.matched.sum()) for p in prevalence)

    def svg(data, *_):
        counts["reporting.svg_bytes"] += len(data)

    return {"tokenize_tweet": tokens, "load_category_set": terms_of_set,
            "load_manifest": terms_of_manifest, "aggregate_daily": aggregate,
            "render_heatmap": svg}


def install(tracer: Tracer) -> None:
    """Replace crisismon's layer functions, in every module that holds them."""
    import crisismon.cli  # noqa: F401  (imports every layer module)
    from crisismon import corpus

    mods = {name: mod for name, mod in sys.modules.items()
            if name == "crisismon" or name.startswith("crisismon.")}
    hooks = _count_hooks(tracer)
    replace = {}
    for mod_name, attr, span, hot in WRAPPED:
        fn = getattr(mods.get(f"crisismon.{mod_name}"), attr, None)
        if fn is not None:
            replace[id(fn)] = tracer.timed(span, fn, hot, hooks.get(attr))

    counts = tracer.counts
    filter_fn = getattr(corpus, "filter_analyzable", None)
    if filter_fn is not None:
        @functools.wraps(filter_fn)
        def filter_analyzable(tweet):
            keep = filter_fn(tweet)
            counts["corpus.filtered"] += 1
            counts["corpus.analyzable"] += bool(keep)
            return keep
        replace[id(filter_fn)] = filter_analyzable

    parse_fn = getattr(corpus, "parse_corpus", None)
    if parse_fn is not None:
        sig = inspect.signature(parse_fn)

        @functools.wraps(parse_fn)
        def parse_corpus(*args, **kwargs):
            report = sig.bind(*args, **kwargs).arguments.get("report")

            def on_end():
                if report is not None:
                    counts["corpus.lines"] += report.lines
                    counts["corpus.parsed"] += report.parsed
                    counts["corpus.skipped"] += report.skipped

            return tracer.timed_iter("corpus.parse", parse_fn(*args, **kwargs), on_end)
        replace[id(parse_fn)] = parse_corpus

    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from crisismon import cli

    command = cli_args[0]
    code = 1
    try:
        code = tracer.timed(f"cli.{command}", cli.main)(cli_args)
    finally:
        out.write_text(json.dumps(tracer.report(command, code)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
