"""The checks pass on the real CLI's outputs and catch each kind of damage."""

import copy
import json
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from test_bench_workloads import SMALL  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each small workload generated and run once through the real CLI."""
    mp = pytest.MonkeyPatch()
    for name, value in SMALL.items():
        mp.setattr(workloads, name, value)
    done = {}
    try:
        for name in workloads.BUILDERS:
            work = tmp_path_factory.mktemp(name)
            wl = workloads.make(name, ROOT, work, seed=11)
            for c in wl.commands:
                subprocess.run([sys.executable, "-m", "crisismon", *c.argv], env=run.child_env(),
                               check=True, capture_output=True)
            done[name] = wl
    finally:
        mp.undo()
    return done


def _command(wl, label):
    return next(c for c in wl.commands if c.label == label)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_real_outputs_pass(outputs, name):
    wl = outputs[name]
    for c in wl.commands:
        assert checks.check_command(c.label, c.out, wl.truth) == []


def test_changed_count_is_caught(outputs):
    wl = outputs["mixed-default"]
    truth = copy.deepcopy(wl.truth)
    truth.matched["fear"][10] += 1
    problems = checks.check_prevalence(_command(wl, "analyze").out / "prevalence.csv", truth)
    assert len(problems) == 1 and "fear" in problems[0]


def test_wrong_day_count_is_caught(outputs):
    wl = outputs["burst-serial"]
    truth = copy.deepcopy(wl.truth)
    truth.end += timedelta(days=1)
    truth.totals.append(0)
    assert checks.check_heatmap(_command(wl, "analyze").out / "heatmap.svg", truth)
    assert checks.check_prevalence(_command(wl, "analyze").out / "prevalence.csv", truth)


def test_late_joint_peak_is_caught(outputs):
    wl = outputs["burst-serial"]
    truth = copy.deepcopy(wl.truth)
    truth.burst -= timedelta(days=workloads.LEAD_DAYS + 20)
    assert checks.check_burst(_command(wl, "analyze").out / "peaks.csv", truth)


def test_stats_mismatch_is_caught(outputs):
    wl = outputs["mixed-default"]
    truth = copy.deepcopy(wl.truth)
    truth.stats["retweet"] += 1
    assert checks.check_stats(_command(wl, "stats").out / "stats.json", truth) == [
        "stats.json differs from the naive oracle in retweet"]


def test_wrong_expand_ranking_is_caught(outputs):
    wl = outputs["wide-pipeline"]
    truth = copy.deepcopy(wl.truth)
    constructs = sorted(truth.expand_top)
    a, b = constructs[:2]
    truth.expand_top[a], truth.expand_top[b] = truth.expand_top[b], truth.expand_top[a]
    assert len(checks.check_expand(_command(wl, "expand").out, truth)) == 2


def test_missing_output_is_a_problem(outputs, tmp_path):
    wl = outputs["burst-serial"]
    problems = checks.check_command("analyze", tmp_path, wl.truth)
    assert problems and "unreadable output" in problems[0]


def test_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.csv").write_bytes(b"x,1\n")
    before = checks.digest(tmp_path)
    (tmp_path / "sub" / "a.csv").write_bytes(b"x,2\n")
    assert set(before) == {"sub/a.csv"} and checks.digest(tmp_path) != before


def test_expected_stats_come_from_the_oracle(outputs):
    stats = json.loads((_command(outputs["mixed-default"], "stats").out / "stats.json")
                       .read_text(encoding="utf-8"))
    assert stats["total"] == outputs["mixed-default"].truth.stats["total"] > 0
