"""crisismon benchmark: seeded workloads through the real CLI, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program under test is its
``src/crisismon``. The workload's inputs are generated from ``--seed`` (outside
the timed region), then its CLI commands run again and again for about
``--seconds``, each as ``python -m crisismon ...`` in a fresh process. The
first run's outputs are checked against the generator's ground truth and
every later run must write the same bytes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
runs with runs under ``tracer.py`` and reports the per-layer metrics. A
human-readable summary comes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/crisismon/cli.py", "tests/synth.py", "tests/oracles.py", "data/lexicons")

MIN_RUNS = 3  # plain runs per measurement, whatever --seconds says
MIN_TRACED_PAIRS = 2
SETUP_WARMUP = 1  # probes that also compile the bytecode; not counted
DEADLINE_S = 140.0  # stop starting runs here, well inside the 180 s limit

END_TO_END = [  # (name, unit, better)
    ("wall_s", "s", "lower"),
    ("tweets_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# Per-layer time metric -> (traced name, which sum). Self time unless "total_s".
LAYER_TIMES = {
    "corpus.parse_s": ("corpus.parse", "self_s"),
    "corpus.tokenize_s": ("corpus.tokenize", "self_s"),
    "corpus.stats_s": ("corpus.stats", "self_s"),
    "lexicon.load_s": ("lexicon.load", "self_s"),
    "lexicon.save_s": ("lexicon.save", "self_s"),
    "expansion.load_embeddings_s": ("expansion.load_embeddings", "self_s"),
    "expansion.expand_s": ("expansion.expand", "self_s"),
    "expansion.knn_s": ("expansion.knn", "self_s"),
    "expansion.associate_s": ("expansion.associate", "self_s"),
    "matching.build_s": ("matching.build", "self_s"),
    "matching.aggregate_s": ("matching.aggregate", "total_s"),
    "matching.write_s": ("matching.write", "self_s"),
    "series.smooth_s": ("series.smooth", "self_s"),
    "series.find_peaks_s": ("series.find_peaks", "self_s"),
    "series.marker_peaks_s": ("series.marker_peaks", "total_s"),
    "series.joint_peaks_s": ("series.joint_peaks", "total_s"),
    "series.write_s": ("series.write", "self_s"),
    "reporting.render_s": ("reporting.render", "self_s"),
    "reporting.stage_table_s": ("reporting.stage_table", "self_s"),
    "reporting.annotate_s": ("reporting.annotate", "self_s"),
    "reporting.load_s": ("reporting.load", "self_s"),
    "reporting.write_s": ("reporting.write", "self_s"),
}
COMMANDS = ("analyze", "stats", "expand")
LAYER_CALLS = {
    "expansion.knn_calls": "expansion.knn",
    "series.smooth_calls": "series.smooth",
    "series.smoothed_gradient_calls": "series.smoothed_gradient",
}
LAYER_COUNTS = {  # counter -> unit
    "corpus.lines": "count", "corpus.parsed": "count", "corpus.skipped": "count",
    "corpus.analyzable": "count", "corpus.tokens": "count", "lexicon.terms": "count",
    "matching.docs": "count", "matching.dropped": "count", "matching.matches": "count",
    "reporting.svg_bytes": "bytes", "cli.workers": "count",
}
# Metrics that must repeat exactly from one traced run to the next.
EXACT = (list(LAYER_COUNTS) + list(LAYER_CALLS) + ["corpus.analyzable_ratio"])


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in LAYER_TIMES}
    units.update({m: "count" for m in LAYER_CALLS})
    units.update(LAYER_COUNTS)
    units.update({f"cli.{c}_s": "s" for c in COMMANDS})
    units.update({"corpus.analyzable_ratio": "ratio", "cli.self_s": "s", "cli.cpu_s": "s",
                  "cli.output_bytes": "bytes", "trace.overhead_s": "s"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argvs: list[list[str]], logs: list[Path], env: dict) -> dict:
    """Run the argvs in sequence under the small launcher process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py")],
        input=json.dumps({"commands": argvs, "logs": [str(p) for p in logs]}),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def setup_time(wl: workloads.Workload, env: dict) -> float:
    """One fresh interpreter's import + category-set load + matcher build."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(wl.categories)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Session:
    """Runs of one workload, with their checks and failure counts."""

    def __init__(self, wl: workloads.Workload, work: Path, env: dict):
        self.wl, self.work, self.env = wl, work, env
        self.reference: list[dict] | None = None  # output digests of the first run
        self.output_bytes = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, traced: bool) -> tuple[dict, list[dict]]:
        """One run of every command; returns the launcher report and traces."""
        argvs, logs, trace_files = [], [], []
        for c in self.wl.commands:
            shutil.rmtree(c.out, ignore_errors=True)
            logs.append(self.work / f"{c.label}.stderr")
            if traced:
                trace_files.append(self.work / f"{c.label}.trace.json")
                argvs.append([sys.executable, str(HERE / "tracer.py"),
                              str(trace_files[-1]), *c.argv])
            else:
                argvs.append([sys.executable, "-m", "crisismon", *c.argv])
        report = launch(argvs, logs, self.env)
        self._check(report, logs)
        traces = [json.loads(p.read_text(encoding="utf-8")) for p in trace_files
                  if p.is_file()]
        return report, traces

    def _check(self, report: dict, logs: list[Path]) -> None:
        digests = [checks.digest(c.out) for c in self.wl.commands]
        for i, (c, r) in enumerate(zip(self.wl.commands, report["runs"])):
            self.attempted += 1
            if r["exit"] != 0:
                err = logs[i].read_text(encoding="utf-8", errors="replace").strip()
                bad = [f"{c.label}: exit {r['exit']}: {err[-300:]}"]
            elif self.reference is None:
                bad = checks.check_command(c.label, c.out, self.wl.truth)
            elif digests[i] != self.reference[i]:
                bad = [f"{c.label}: outputs differ from the first run's"]
            else:
                bad = []
            if bad:
                self.failed += 1
                self.problems.extend(bad)
        if self.reference is None:
            self.reference = digests
            self.output_bytes = checks.output_bytes(self.wl)


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def measure_plain(s: Session, seconds: float, t0: float) -> tuple[dict, list[str]]:
    """Runs until ``seconds`` are spent, with a set-up probe after each.

    ``wall_s`` is the median run and ``setup_s`` the median probe. Spreading
    the probes over the whole period keeps a slow moment of the shared host
    from setting them all.
    """
    for _ in range(SETUP_WARMUP):
        setup_time(s.wl, s.env)
    walls, rss, setup = [], [], []
    begin = time.perf_counter()
    while True:
        report, _ = s.run(traced=False)
        walls.append(report["wall_s"])
        rss.append(max(r["maxrss_kb"] for r in report["runs"]) / 1024)
        setup.append(setup_time(s.wl, s.env))
        spent = time.perf_counter() - begin
        if len(walls) >= MIN_RUNS and spent + spent / len(walls) > seconds:
            break
        if time.perf_counter() - t0 > DEADLINE_S:
            break
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, "tweets_per_s": s.wl.corpus_lines / wall,
               "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setup)}
    notes = [f"wall_s      median of {len(walls)} runs; {_quartiles(walls)}",
             f"peak_rss_mb median of {len(rss)} runs; max {max(rss):.1f}",
             f"setup_s     median of {len(setup)} probes; {_quartiles(setup)}",
             "wall_s runs " + " ".join(f"{w:.4f}" for w in walls)]
    return metrics, notes


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, summed over its commands."""
    names: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for t in traces:
        for n, v in t["names"].items():
            slot = names.setdefault(n, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for k in slot:
                slot[k] += v[k]
        for k, v in t["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "cli.workers" else counts.get(k, 0) + v

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    m = {metric: get(name, key) for metric, (name, key) in LAYER_TIMES.items()}
    m.update({metric: get(name, "calls") for metric, name in LAYER_CALLS.items()})
    m.update({k: counts.get(k, 0) for k in LAYER_COUNTS})
    filtered = counts.get("corpus.filtered", 0)
    m["corpus.analyzable_ratio"] = counts.get("corpus.analyzable", 0) / filtered if filtered else 0
    for c in COMMANDS:
        m[f"cli.{c}_s"] = get(f"cli.{c}", "total_s")
    m["cli.self_s"] = sum(get(f"cli.{c}", "self_s") for c in COMMANDS)
    return m


def unaccounted_s(trace: dict) -> float:
    """Command wall time not covered by the self times of all traced names."""
    wall = trace["names"][f"cli.{trace['command']}"]["total_s"]
    return wall - sum(v["self_s"] for v in trace["names"].values())


def measure_traced(s: Session, seconds: float, t0: float) -> tuple[dict, list[str], list[dict]]:
    """Plain and traced runs in turn until ``seconds`` are spent.

    Layer metrics and ``cli.cpu_s`` are medians over the runs, and
    ``trace.overhead_s`` is the median traced minus the median plain wall
    time. Also returns the last traced run's traces.
    """
    plain, traced, cpu, layers = [], [], [], []
    begin = time.perf_counter()
    while True:
        report, _ = s.run(traced=False)
        plain.append(report["wall_s"])
        cpu.append(sum(r["cpu_s"] for r in report["runs"]))
        report, traces = s.run(traced=True)
        traced.append(report["wall_s"])
        for t in traces:
            gap = unaccounted_s(t)
            if abs(gap) > 1e-3:
                s.problems.append(f"trace of {t['command']}: {gap:.6f} s unaccounted")
        layers.append(layer_metrics(traces))
        spent = time.perf_counter() - begin
        if len(traced) >= MIN_TRACED_PAIRS and spent + spent / len(traced) > seconds:
            break
        if time.perf_counter() - t0 > DEADLINE_S:
            break
    for k in EXACT:
        if len({m[k] for m in layers}) > 1:
            s.problems.append(f"{k} differs between traced runs: {[m[k] for m in layers]}")
    truth = s.wl.truth
    expected = {"matching.dropped": truth.dropped,
                "matching.docs": sum(truth.totals) + truth.dropped,
                "matching.matches": sum(map(sum, truth.matched.values()))}
    for k, v in expected.items():
        if layers[0][k] != v:
            s.problems.append(f"{k} is {layers[0][k]}, the generator planted {v}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["cli.cpu_s"] = statistics.median(cpu)
    metrics["cli.output_bytes"] = s.output_bytes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = [f"plain wall_s  median {statistics.median(plain):.4f}, {_quartiles(plain)}",
             f"traced wall_s median {statistics.median(traced):.4f}, {_quartiles(traced)}"]
    return metrics, notes, traces


def host_note() -> str:
    cpus = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0))
    note = f"host: os.cpu_count()={cpus}, usable cpus={usable}"
    if cpus > usable:
        note += " -- OVERSUBSCRIBED: the default --workers starts more workers than usable cpus"
    return note


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a crisismon checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    try:
        wl = workloads.make(args.workload, ROOT, work, args.seed)
        session = Session(wl, work, env)
        if args.trace:
            metrics, notes, traces = measure_traced(session, args.seconds, t0)
            spans = work.parent / f"trace-{args.workload}-{args.seed}.json"
            spans.write_text(json.dumps(traces), encoding="utf-8")
            notes.append(f"spans of the last traced run: {spans.relative_to(ROOT)}")
            units = per_layer_units()
        else:
            metrics, notes = measure_plain(session, args.seconds, t0)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = session.failed / session.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{wl.corpus_lines} corpus lines, {session.attempted} CLI invocations")
    print(host_note())
    for name in units:
        print(f"  {name:32s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_ops':32s} {failed_ops:>14.6g} share ({session.failed} of "
          f"{session.attempted})")
    for line in notes:
        print(f"  {line}")
    for problem in session.problems:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
