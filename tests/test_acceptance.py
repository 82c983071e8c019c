"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import contextlib
import csv
import inspect
import itertools
import json
import random
import time
from datetime import date, timedelta

import numpy as np
import pytest

from crisismon import (CategorySet, Corpus, ParseReport, Series, build_matcher,
                       corpus_stats, filter_peaks, find_peaks, gradient,
                       joint_peaks, knn, make_lexicon, marker_peaks,
                       render_heatmap, smooth, stage_prevalence_table)
from crisismon.cli import RunConfig, main
from crisismon.expansion import EmbeddingTable
from crisismon.reporting import StageWindow

from oracles import (brute_filter, brute_knn, brute_peaks, naive_match,
                     naive_stage_table, naive_stats)
from synth import write_burst_workspace

D0 = date(2020, 3, 1)


def one_row(days):
    """One marker's days, as a one-row series named ``m``."""
    return Series(start=D0, names=("m",), values=[np.asarray(days, dtype=np.float64).tolist()])


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    print(f"[criterion {number}] {description}: PASS")


def test_criterion_1_matcher_oracle_equivalence():
    with criterion(1, "matcher equals naive per-term scan on 1000 docs x 50 categories"):
        rng = random.Random(101)
        vocab = ["".join(p) for p in itertools.product("abcdefghij", repeat=3)]
        raw: dict[str, list[tuple[str, ...]]] = {}
        for c in range(50):
            n_terms = rng.randint(20, 200)
            terms = set()
            for _ in range(n_terms):
                span = 2 + rng.randrange(2) if rng.random() < 0.10 else 1
                terms.add(tuple(rng.choice(vocab) for _ in range(span)))
            raw[f"cat{c:02d}"] = sorted(terms)
        docs = [
            tuple(rng.choice(vocab) for _ in range(rng.randint(5, 40)))
            for _ in range(1000)
        ]

        cats = CategorySet(
            name="acc",
            categories={
                name: make_lexicon(name, [" ".join(t) for t in terms])
                for name, terms in raw.items()
            },
        )
        t_start = time.perf_counter()
        matcher = build_matcher(cats)
        got = [{matcher.category_names[i] for i in matcher.match_indices(doc)} for doc in docs]
        elapsed = time.perf_counter() - t_start

        mismatches = sum(
            1 for doc, g in zip(docs, got) if g != naive_match(raw, list(doc))
        )
        assert mismatches == 0
        assert elapsed < 5.0, f"matcher took {elapsed:.2f}s"


def test_criterion_2_knn_oracle_equivalence():
    with criterion(2, "knn(k=10) equals exhaustive top-10 on |V|=5000, dim=50"):
        rng = np.random.default_rng(103)
        tokens = [f"tok{i:04d}" for i in range(5000)]
        matrix = rng.normal(size=(5000, 50))
        table = EmbeddingTable(tokens, matrix)
        queries = rng.integers(0, 5000, size=100)
        for qi in queries:
            got = [t for t, _ in knn(table, tokens[qi], 10)]
            expect = [t for t, _ in brute_knn(tokens, matrix, int(qi), 10)]
            assert got == expect


def test_criterion_3_peak_pipeline_oracle():
    with criterion(3, "find_peaks+prominence and filter match brute force on 200 series"):
        rng = np.random.default_rng(107)
        for trial in range(200):
            v = np.round(rng.normal(size=180).cumsum(), 5)
            if trial % 4 == 0:  # plateaus
                reps = rng.integers(1, 3, size=180)
                v = np.repeat(v, reps)[:180]
            if trial % 3 == 0:  # runs of missing values
                start = int(rng.integers(0, 160))
                v[start : start + int(rng.integers(2, 15))] = np.nan
            s = one_row(v)
            peaks = find_peaks(s)[0]
            got = [(p.index, p.prominence) for p in peaks]
            assert got == brute_peaks(list(v))

            kept = filter_peaks(peaks, 1.0)
            expect_idx = [
                peaks[i].index
                for i in brute_filter([p.prominence for p in peaks], 1.0)
            ]
            assert [p.index for p in kept] == expect_idx


def test_criterion_4_smoothing_gradient_invariants():
    with criterion(4, "smoothing/gradient invariants at stated tolerances"):
        # smooth(constant) = constant, exactly
        for c in (0.0, 0.1, 5.0, -3.7, 123.456):
            out = smooth(one_row(np.full(50, c)), 7)
            assert out.values[0] == [c] * 50

        # linearity under affine transforms, 1e-9
        rng = np.random.default_rng(109)
        x = rng.normal(size=200)
        x[rng.integers(0, 200, size=12)] = np.nan
        for a, b in [(2.0, 3.0), (-1.5, 10.0), (0.125, -2.0)]:
            lhs = np.array(smooth(one_row(a * x + b), 7).values[0])
            rhs = a * np.array(smooth(one_row(x), 7).values[0]) + b
            ok = ~np.isnan(lhs)
            assert np.isnan(lhs).tolist() == np.isnan(rhs).tolist()
            assert np.max(np.abs(lhs[ok] - rhs[ok])) < 1e-9

        # gradient of a linear series recovers the slope everywhere, 1e-12
        for slope in (3.0, -0.25, 11.0):
            g = gradient(one_row(slope * np.arange(60.0)))
            assert np.max(np.abs(np.array(g.values[0]) - slope)) < 1e-12

        # peak indices invariant under positive affine transforms
        for _ in range(30):
            v = np.round(rng.normal(size=150).cumsum(), 3)
            base_idx = [p.index for p in find_peaks(one_row(v))[0]]
            for a, b in [(2.0, 0.0), (0.5, 100.0), (7.25, -40.0)]:
                idx = [
                    p.index
                    for p in find_peaks(one_row(a * v + b))[0]
                ]
                assert idx == base_idx


def _read_joint_peaks(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.DictReader(fh) if r["marker"] == "JOINT"]


def test_criterion_5_end_to_end_planted_burst(tmp_path):
    with criterion(5, "planted burst recovered end to end, stable across workers"):
        ws = write_burst_workspace(
            tmp_path, seed=20, n_days=90, per_day=200,
            baseline=0.05, burst=0.30, burst_start=40, burst_len=3,
        )
        outputs = ["prevalence.csv", "peaks.csv", "heatmap.svg", "series.csv"]
        snapshots = []
        for workers in ("1", "1", "3"):
            assert main(["analyze", "--config", str(ws["config"]),
                         "--workers", workers]) == 0
            snapshots.append(
                {name: (ws["out"] / name).read_bytes() for name in outputs}
            )
        assert snapshots[0] == snapshots[1], "rerun changed outputs"
        assert snapshots[0] == snapshots[2], "--workers changed outputs"

        joint = _read_joint_peaks(ws["out"] / "peaks.csv")
        rises = [r for r in joint if r["direction"] == "rise"]
        falls = [r for r in joint if r["direction"] == "fall"]
        assert len(rises) == 1
        rise_day = (date.fromisoformat(rises[0]["date"]) - D0).days
        assert 40 <= rise_day <= 46, f"rise at day {rise_day}"
        assert len(falls) == 1
        fall_day = (date.fromisoformat(falls[0]["date"]) - D0).days
        assert fall_day > 42, f"fall at day {fall_day}"


def test_criterion_6_paper_constant_defaults():
    with criterion(6, "fresh RunConfig defaults: k=10, m=10, window=7, sigma_mult=1.0"):
        cfg = RunConfig()
        assert cfg.k == 10
        assert cfg.m == 10
        assert cfg.window == 7
        assert cfg.sigma_mult == 1.0
        for peaks in (marker_peaks, joint_peaks):
            assert inspect.signature(peaks).parameters["sigma_mult"].default == 1.0


def test_criterion_7_stage_table_mechanism():
    with criterion(7, "stage table equals naive double loop; argmax lands in its stage"):
        rng = np.random.default_rng(113)
        stages = [
            ("A", D0, D0 + timedelta(days=39)),
            ("B", D0 + timedelta(days=40), D0 + timedelta(days=79)),
            ("C", D0 + timedelta(days=80), D0 + timedelta(days=119)),
        ]
        values_by_marker = {}
        for mi in range(5):
            v = rng.normal(4.0, 0.5, 120)
            v[rng.integers(0, 120, size=5)] = np.nan
            values_by_marker[f"m{mi}"] = v
        # one marker engineered to peak inside stage B
        spike = rng.normal(4.0, 0.2, 120)
        spike[55:60] += 6.0
        values_by_marker["stageB_marker"] = spike

        rows = Series(start=D0, names=tuple(values_by_marker),
                      values=[v.tolist() for v in values_by_marker.values()])
        got = stage_prevalence_table(rows, [StageWindow(n, s, e) for n, s, e in stages])
        expect = naive_stage_table(
            {k: [None if np.isnan(x) else float(x) for x in v]
             for k, v in values_by_marker.items()},
            D0,
            stages,
        )
        for marker, stage, cell in got:
            ref = expect[(marker, stage)]
            if ref is None:
                assert cell is None
            else:
                assert cell == pytest.approx(ref, abs=1e-9)

        by_stage = {s: c for m, s, c in got if m == "stageB_marker"}
        assert max(by_stage, key=by_stage.get) == "B"


def test_criterion_8_heatmap_determinism_and_monotonicity():
    with criterion(8, "byte-identical SVG; higher value means strictly darker fill"):
        import re

        rng = np.random.default_rng(127)
        values = np.round(rng.uniform(0, 100, size=60), 4)
        values[10] = np.nan
        rows = one_row(values)
        assert rows.days == 60
        svg1 = render_heatmap(rows)
        svg2 = render_heatmap(rows)
        assert svg1 == svg2

        fills = [
            f
            for f in re.findall(r'<rect [^>]*fill="([^"]+)"/>', svg1.decode())
            if f.startswith(("rgb(", "url("))
        ]
        assert len(fills) == 60
        lums = [
            None if f.startswith("url(") else float(re.match(r"rgb\(([0-9.]+)%", f).group(1))
            for f in fills
        ]
        for i, j in itertools.combinations(range(60), 2):
            if lums[i] is None or lums[j] is None:
                continue
            if values[i] > values[j]:
                assert lums[i] < lums[j], (i, j)
            elif values[i] < values[j]:
                assert lums[i] > lums[j], (i, j)


def test_criterion_9_corpus_stats_oracle(tmp_path):
    with criterion(9, "corpus stats equal the naive counting script on 10k tweets"):
        from datetime import datetime, timezone

        rng = random.Random(131)
        base = datetime(2020, 3, 1, tzinfo=timezone.utc)
        texts = [
            "sin etiquetas por hoy",
            "con #Cuarentena y más",
            "hola @alguien mira https://x.co/a",
            "## no cuenta como etiqueta",
        ]
        records = []
        for i in range(10_000):
            created = base + timedelta(minutes=rng.randrange(183 * 24 * 60))
            records.append(
                {
                    "id": f"t{i}",
                    "created_at": created.isoformat().replace("+00:00", "Z"),
                    "text": rng.choice(texts),
                    "kind": rng.choice(
                        ["original", "original", "retweet", "retweet", "retweet", "reply"]
                    ),
                    "user_id": f"u{min(int(rng.expovariate(0.002)), 4999)}",
                }
            )
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        stats = corpus_stats(Corpus((str(path),)), 1, ParseReport())
        assert stats.to_json_dict() == naive_stats(records)
