"""The traced run accounts for its time, counts exactly and tolerates change."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from test_bench_workloads import SMALL  # noqa: E402


@pytest.fixture(scope="module")
def burst(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    for name, value in SMALL.items():
        mp.setattr(workloads, name, value)
    try:
        return workloads.make("burst-serial", ROOT, tmp_path_factory.mktemp("burst"), seed=4)
    finally:
        mp.undo()


def _trace(wl, tmp_path, prelude=""):
    out = tmp_path / "trace.json"
    code = "\n".join([f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracer",
                      prelude,
                      f"sys.exit(tracer.main({[str(out), *wl.commands[0].argv]!r}))"])
    subprocess.run([sys.executable, "-c", code], env=run.child_env(), check=True,
                   capture_output=True)
    return json.loads(out.read_text(encoding="utf-8"))


def test_self_times_add_up_to_the_command(burst, tmp_path):
    trace = _trace(burst, tmp_path)
    assert trace["exit"] == 0
    assert abs(run.unaccounted_s(trace)) < 1e-6
    assert all(v["self_s"] >= -1e-9 for v in trace["names"].values())


def test_counts_match_the_generated_corpus(burst, tmp_path):
    m = run.layer_metrics([_trace(burst, tmp_path)])
    truth = burst.truth
    assert m["corpus.lines"] == m["corpus.parsed"] == burst.corpus_lines
    assert m["corpus.analyzable_ratio"] == 1.0
    assert m["matching.docs"] == sum(truth.totals)
    assert m["matching.matches"] == sum(map(sum, truth.matched.values()))
    markers = len(truth.matched)
    # analyze smooths each marker once for the heatmap, and derives its
    # smoothed gradient (two smooths each) three times
    assert m["series.smooth_calls"] == 7 * markers
    assert m["series.smoothed_gradient_calls"] == 3 * markers
    assert m["cli.workers"] == 1
    assert m["cli.analyze_s"] > m["cli.self_s"] > 0


def test_spans_record_their_parents(burst, tmp_path):
    spans = _trace(burst, tmp_path)["spans"]
    root = spans[0]
    assert root["name"] == "cli.analyze" and root["parent"] is None
    assert {s["name"] for s in spans if s["parent"] == 0} >= {
        "lexicon.load", "matching.build", "matching.aggregate"}
    assert root["hot"]["corpus.parse"][1] == sum(burst.truth.totals) + 1


def test_a_removed_function_reads_as_zero_calls(burst, tmp_path):
    trace = _trace(burst, tmp_path,
                   prelude="tracer.WRAPPED.append(('series', 'gone', 'series.gone', True))")
    assert trace["exit"] == 0 and "series.gone" not in trace["names"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
