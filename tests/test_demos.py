"""Smoke test: every demo runs to completion, with warnings as errors.

Demo 05 writes its heatmap into the directory given as its argument, here a
temporary one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crisismon

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(crisismon.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_corpus_and_stats.py",
    "02_lexicon_expansion.py",
    "03_daily_prevalence.py",
    "04_peak_detection.py",
])
def test_demo_runs(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stderr


def test_full_report_demo_writes_into_the_given_directory(tmp_path):
    proc = _run("05_full_report.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "heatmap.svg").read_bytes().startswith(b"<?xml")


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name), *args],
        capture_output=True, text=True, env=env,
    )
