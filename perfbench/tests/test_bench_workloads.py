"""The generator is deterministic per seed and writes what the notes promise."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SMALL = {
    "BURST_DAYS": 60, "BURST_PER_DAY": 40,
    "MIXED_LINES": 4000,
    "WIDE_DAYS": 40, "WIDE_PER_DAY": 30, "WIDE_VOCAB": 6000,
}


@pytest.fixture()
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _snapshot(work: Path) -> dict[str, bytes]:
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_bytes_and_truth(small, tmp_path, name):
    work = tmp_path / name
    first = workloads.make(name, ROOT, work, seed=7)
    files = _snapshot(work)
    for p in work.rglob("*"):
        if p.is_file():
            p.unlink()
    again = workloads.make(name, ROOT, work, seed=7)
    assert _snapshot(work) == files
    assert again.truth == first.truth
    assert again.corpus_lines == first.corpus_lines


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_other_seed_other_corpus(small, tmp_path, name):
    a = workloads.make(name, ROOT, tmp_path / "a", seed=1)
    b = workloads.make(name, ROOT, tmp_path / "b", seed=2)
    assert a.truth.matched != b.truth.matched


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_corpora_are_valid_utf8(small, tmp_path, name):
    work = tmp_path / name
    workloads.make(name, ROOT, work, seed=3)
    for path in work.glob("corpus*.jsonl"):
        path.read_bytes().decode("utf-8", errors="strict")


def test_mixed_has_the_promised_mess(small, tmp_path):
    wl = workloads.make("mixed-default", ROOT, tmp_path, seed=5)
    lines = [line for p in sorted(tmp_path.glob("corpus-*.jsonl"))
             for line in p.read_text(encoding="utf-8").split("\n")[:-1]]
    assert len(lines) == wl.corpus_lines == SMALL["MIXED_LINES"]
    records, bad, blank = [], 0, 0
    for line in lines:
        if not line.strip():
            blank += 1
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            bad += 1
            continue
        records.append(rec)
    kinds = [r.get("kind") for r in records if isinstance(r, dict)]
    assert 0.25 < kinds.count("retweet") / len(kinds) < 0.35
    assert 0.05 < kinds.count("reply") / len(kinds) < 0.15
    assert blank and bad
    text = " ".join(r["text"] for r in records if isinstance(r, dict))
    assert "#" in text and "https://" in text and "@" in text
    stamps = {r["created_at"][19:] for r in records if isinstance(r, dict)}
    assert {"Z", "-03:00", "+05:30", ""} <= stamps
    # the three-day gap: empty days inside the range
    assert sum(1 for t in wl.truth.totals if t == 0) >= 3
    assert wl.truth.dropped > 0


def test_wide_plants_one_category_per_construct(small, tmp_path):
    wl = workloads.make("wide-pipeline", ROOT, tmp_path, seed=5)
    manifest = json.loads((ROOT / "data/lexicons/manifest.json").read_text())
    assert set(wl.truth.expand_top) == set(manifest)
    assert len(set(wl.truth.expand_top.values())) == len(manifest)
    header = (tmp_path / "embeddings.txt").read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == f"{SMALL['WIDE_VOCAB']} {workloads.WIDE_DIM}"
