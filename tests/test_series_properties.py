"""Property-based checks of smoothing and peak finding against the oracles,
and of each row of a markers × days series against that row alone."""

import importlib.util
from datetime import date

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import Series, find_peaks, marker_peaks, smooth, smoothed_gradient

from oracles import brute_peaks, ref_smooth

D0 = date(2020, 3, 1)
NAN = float("nan")


def one_row(days):
    """One marker's days, as a one-row series named ``m``."""
    return Series(start=D0, names=("m",), values=[np.asarray(days, dtype=np.float64).tolist()])


def _runs(values):
    """A series built from runs: each run repeats one value (NaN = a hole)."""
    return st.lists(
        st.tuples(values, st.integers(1, 12)), max_size=12
    ).map(lambda runs: [x for x, n in runs for _ in range(n)])


# Runs of arbitrary values give constant stretches and NaN holes; single
# days between them give ordinary noise.
smooth_values = st.one_of(
    st.just(NAN), st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
)
# Few distinct levels, so plateaus, ties and NaN neighbours are common.
peak_values = st.one_of(st.just(NAN), st.integers(-4, 4).map(float))


@settings(max_examples=300, deadline=None)
@given(_runs(smooth_values), st.integers(1, 30))
def test_smooth_equals_reference_mean(values, window):
    (got,) = smooth(one_row(values), window).values
    ref = ref_smooth(values, window)
    assert len(got) == len(ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        if r is None:
            assert np.isnan(g)
            continue
        assert abs(g - r) <= 1e-9
        present = {x for x in values[max(0, i - window + 1) : i + 1] if x == x}
        if len(present) == 1:  # a constant stretch stays exactly constant
            assert g == present.pop()


@settings(max_examples=300, deadline=None)
@given(_runs(peak_values) | st.lists(peak_values, max_size=60))
def test_find_peaks_equals_brute_force(values):
    got = [(p.index, p.prominence) for p in find_peaks(one_row(values))[0]]
    assert got == brute_peaks(values)


# NaN-free series: few levels give plateaus and equal-height neighbours,
# arbitrary floats give ordinary terrain.
finite_values = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@settings(max_examples=300, deadline=None)
@given(_runs(finite_values) | st.lists(finite_values, max_size=60))
def test_prominences_equal_scipy(values):
    from scipy.signal import peak_prominences

    peaks = find_peaks(one_row(values))[0]
    if not peaks:
        return
    expect, _, _ = peak_prominences(np.array(values), [p.index for p in peaks])
    assert [p.prominence for p in peaks] == expect.tolist()


@st.composite
def _markers_by_days(draw):
    """1-5 rows of one length: arbitrary, constant (or all-missing), or runs with holes."""
    n = draw(st.integers(0, 40))
    row = st.one_of(
        st.lists(smooth_values, min_size=n, max_size=n),
        smooth_values.map(lambda x: [x] * n),
        _runs(smooth_values).map(lambda v: (v + [NAN] * n)[:n]),
    )
    return draw(st.lists(row, min_size=1, max_size=5))


def _same_bits(a, b):
    """Equal bit for bit, NaN for NaN; a NaN's sign and payload are not compared,
    since NumPy's vector and scalar loops may differ there and nothing reads them."""
    a, b = np.asarray(a), np.asarray(b)
    holes = np.isnan(a)
    return (holes == np.isnan(b)).all() and a[~holes].tobytes() == b[~holes].tobytes()


@settings(max_examples=300, deadline=None)
@given(_markers_by_days(), st.integers(1, 30))
def test_each_row_equals_that_row_alone(rows, window):
    raw = Series(D0, tuple(f"m{i}" for i in range(len(rows))), rows)
    smoothed = smooth(raw, window)
    sg = smoothed_gradient(raw, window)[1] if raw.days >= 2 else None
    peaks = marker_peaks(sg) if sg is not None else None
    for i, values in enumerate(rows):
        alone = Series(D0, (f"m{i}",), [values])
        assert _same_bits(smoothed.values[i], smooth(alone, window).values[0])
        if sg is not None:
            sg_alone = smoothed_gradient(alone, window)[1]
            assert _same_bits(sg.values[i], sg_alone.values[0])
            assert peaks[f"m{i}"] == marker_peaks(sg_alone)[f"m{i}"]
