"""The Python-float series, reporting and matching code against the NumPy code
it replaced (``oracles.np_*``): the same bits, with ±0.0 told apart and NaN
where NaN. The inputs reach the edges where Python floats raise and NumPy
only warned: zero totals, windows and rows with no present day, flat rows,
zero medians, and values up to 1e308 and infinity."""

import random
import struct
from datetime import date, timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import Series, StageWindow, find_peaks, joint_peaks, smooth, smoothed_gradient
from crisismon.matching import DailyAggregate
from crisismon.reporting import stage_prevalence_table
from crisismon.series import _sum, _threshold, _zscore

from oracles import (brute_peaks, np_gradient, np_joint, np_percent, np_smooth,
                     np_stage_table, np_threshold, np_zscore)

D0 = date(2020, 3, 1)
NAN, INF = float("nan"), float("inf")
SPECIAL = [NAN, 0.0, -0.0, INF, -INF, 1e308, -1e308, 5e-324]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6), st.floats(allow_nan=False))


def names(rows):
    """A name for each row of markers × days."""
    return tuple(f"m{i}" for i in range(len(rows)))


def bits(x):
    """A float's bytes, NaN as one token (its sign and payload are not compared)."""
    return "nan" if x != x else struct.pack("<d", x)


def same(got, expect):
    return [bits(x) for x in got] == [bits(float(x)) for x in expect]


def _row(rng, n, scale, special, p_special, runs):
    """n values: uniform in ±scale, some drawn from ``special``, perhaps in runs."""
    out = []
    while len(out) < n:
        x = rng.choice(special) if special and rng.random() < p_special else \
            rng.uniform(-1.0, 1.0) * scale
        out += [x] * (rng.randint(1, 12) if runs else 1)
    return out[:n]


@st.composite
def markers_by_days(draw, max_rows=5, max_days=400, min_days=1):
    """Rows of one length: random, flat or all-missing, with NaN holes,
    signed zeros and extreme values mixed in."""
    n_rows = draw(st.integers(1, max_rows))
    n_days = draw(st.integers(min_days, max_days))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 100.0, 1e300, 1e308]))
    special = draw(st.lists(st.sampled_from(SPECIAL), max_size=4, unique_by=bits))
    p_special = draw(st.sampled_from([0.05, 0.3, 0.9]))
    runs = draw(st.booleans())
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([NAN] * n_days)
        elif kind < 0.3:  # flat, perhaps with holes
            flat = rng.choice(SPECIAL[1:3] + [rng.uniform(-5, 5)])
            holes = rng.choice([0.0, 0.3])
            rows.append([NAN if rng.random() < holes else flat for _ in range(n_days)])
        else:
            rows.append(_row(rng, n_days, scale, special, p_special, runs))
    return rows


def test_sum_matches_numpy_at_every_length_up_to_1000():
    rng = random.Random(5)
    for n in range(1001):
        v = _row(rng, n, rng.choice([1.0, 1e10, 1e308]), SPECIAL[:3] + SPECIAL[5:],
                 rng.choice([0.0, 0.2, 1.0]), rng.random() < 0.3)
        with np.errstate(all="ignore"):
            expect = np.add.reduce(np.array(v, dtype=np.float64))
        assert same([_sum(v)], [expect]), n


@settings(max_examples=150, deadline=None)
@given(st.lists(FLOATS, max_size=300))
def test_sum_matches_numpy(v):
    with np.errstate(all="ignore"):
        assert same([_sum(v)], [np.add.reduce(np.array(v, dtype=np.float64))])


@settings(max_examples=120, deadline=None)
@given(markers_by_days(), st.integers(1, 30))
def test_smooth_and_smoothed_gradient_match_numpy(rows, window):
    raw = Series(D0, names(rows), rows)
    expect = np_smooth(rows, window)
    assert all(same(g, e) for g, e in zip(smooth(raw, window).values, expect))
    if raw.days >= 2:
        sg = smoothed_gradient(raw, window)[1].values
        expect = np_smooth(np_gradient(expect), window)
        assert all(same(g, e) for g, e in zip(sg, expect))


@settings(max_examples=100, deadline=None)
@given(markers_by_days(max_rows=12, max_days=120, min_days=3), st.sampled_from([0.0, 0.5, 1, 2.0]))
def test_zscores_and_joint_peaks_match_numpy(rows, sigma_mult):
    for row in rows:
        assert same(_zscore(row), np_zscore(row))
    combined, signed = np_joint(rows)
    candidates = brute_peaks(combined.tolist())
    if candidates:
        threshold = np_threshold([prom for _, prom in candidates], sigma_mult)
        candidates = [(i, prom) for i, prom in candidates if prom > threshold]
    got = joint_peaks(Series(D0, names(rows), rows), sigma_mult)
    assert [(p.index, bits(p.height), bits(p.prominence), p.direction) for p in got] == [
        (i, bits(float(combined[i])), bits(prom), "rise" if signed[i] >= 0 else "fall")
        for i, prom in candidates]


@settings(max_examples=150, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=300) | markers_by_days(max_rows=1).map(lambda r: r[0]),
       st.one_of(st.sampled_from([0, 1, 2]), st.floats(0.0, 5.0)))
def test_threshold_matches_numpy(proms, sigma_mult):
    assert same([_threshold(proms, sigma_mult)], [np_threshold(proms, sigma_mult)])


@settings(max_examples=100, deadline=None)
@given(markers_by_days(max_rows=1, max_days=200))
def test_prominences_match_brute_force_at_extreme_values(rows):
    got = [(p.index, bits(p.prominence)) for p in find_peaks(Series(D0, names(rows), rows))[0]]
    assert got == [(i, bits(prom)) for i, prom in brute_peaks(rows[0])]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n_days: st.tuples(
    st.lists(st.integers(-2, 2**40), min_size=n_days, max_size=n_days),
    st.lists(st.lists(st.integers(0, 2**40), min_size=n_days, max_size=n_days),
             min_size=1, max_size=4))))
def test_percent_matches_numpy(drawn):
    totals, matched = drawn
    totals = tuple(t if t % 3 else 0 for t in totals)  # many empty days
    agg = DailyAggregate(D0, tuple("abcd"[: len(matched)]), matched, totals, 0)
    assert agg.end == D0 + timedelta(days=len(totals) - 1)
    assert all(same(g, e) for g, e in zip(agg.percent(), np_percent(matched, totals)))


@settings(max_examples=120, deadline=None)
@given(markers_by_days(max_days=200),
       st.lists(st.tuples(st.integers(-20, 220), st.integers(0, 60)), min_size=1, max_size=5))
def test_stage_table_matches_numpy(rows, windows):
    stages = [(f"s{i}", D0 + timedelta(days=lo), D0 + timedelta(days=lo + span))
              for i, (lo, span) in enumerate(windows)]
    table = stage_prevalence_table(Series(D0, names(rows), rows),
                                   [StageWindow(*stage) for stage in stages])
    expect = np_stage_table(rows, D0, stages)
    assert [None if c is None else bits(c) for _, _, c in table] == [
        None if c is None else bits(c) for c in expect]
