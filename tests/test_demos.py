"""Smoke test: the demos that write nothing run to completion.

Demo 05 writes ``demos/out/`` inside the repository, so it is left to be
run by hand.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
