"""Time-series smoothing, gradients, and prominence-based peak detection.

A ``Series`` holds markers × days as lists of Python floats: row ``i`` is
the marker ``names[i]`` and lists the days from ``start``. ``days`` counts
them, ``select`` picks rows by name, and every function here works on each
row alone, save ``joint_peaks``, which combines them into the row ``JOINT``;
a single marker is a one-row series.

A day with no signal is NaN, never 0: missing propagates through gradients,
excludes itself from window means, and never hosts a peak.

Peaks are detected on the *smoothed gradient* of a prevalence series
(trailing moving average, then central-difference gradient, then the same
moving average again). A caller derives it once for all markers,
``smoothed, sg = smoothed_gradient(raw, w)``, and hands the rows of ``sg`` to
``marker_peaks`` and ``joint_peaks``; neither derives it again. The trailing
window makes the series respond slowly to recent changes, so a detected
change lags its cause by up to a window.
Candidate peaks are strict local maxima (plateaus count once, at their
leftmost index), scored by topographic prominence: height above the higher
of the two minima separating the peak from higher terrain on either side.
Only candidates with prominence above the candidate mean plus ``sigma_mult``
population standard deviations survive filtering; with a single candidate
(or all-equal prominences) the strict inequality keeps nothing.

The module does not use NumPy, yet gives the bits its NumPy version gave.
Every sum of floats is ``_sum``, which adds in the order of NumPy's pairwise
``np.add.reduce``; means and standard deviations divide such sums as NumPy's
do. The one exception is the mean over markers in ``joint_peaks``: NumPy's
reduction over the first axis adds the rows one after another, and so does
the loop. Where NumPy divided by zero and warned, the division is guarded.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from operator import add
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import cell, write_csv

RISE = "rise"
FALL = "fall"
JOINT = "JOINT"


class Series(NamedTuple):
    """Contiguous daily values, markers × days; NaN marks a missing day."""

    start: date
    names: tuple[str, ...]  # the marker of each row, no two alike
    values: list[list[float]]  # one row of days per marker, all of one length

    @property
    def days(self) -> int:
        """The number of days; 0 without rows."""
        return len(self.values[0]) if self.values else 0

    def select(self, names: Sequence[str]) -> Series:
        """The rows of ``names``, in that order; an unknown name is a ``KeyError``."""
        row = dict(zip(self.names, self.values))
        return self._replace(names=tuple(names), values=[row[n] for n in names])

    def dates(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(self.days)]

    def crop(self, start: date, end: date) -> Series:
        """The days [start, end] of every row; both must lie inside."""
        if start > end:
            raise ValueError(f"start {start} after end {end}")
        i0, i1 = (start - self.start).days, (end - self.start).days
        for d, i in ((start, i0), (end, i1)):
            if not 0 <= i < self.days:
                raise ValueError(f"{d} outside series range")
        return self._replace(start=start, values=[v[i0 : i1 + 1] for v in self.values])


class Peak(NamedTuple):
    date: date
    index: int
    height: float
    prominence: float
    direction: str = RISE


def _sum(v: list[float]) -> float:
    """The sum of ``v`` with the bits of NumPy's ``np.add.reduce``.

    NumPy adds fewer than 8 values in order, from 0.0; up to 128 on eight
    interleaved accumulators, combined pairwise, with the remainder added in
    order; and splits a longer run in two at a multiple of 8 near its middle.
    It adds the total to 0.0, which turns -0.0 into 0.0; doing so at every
    split as well changes no result.
    """
    n = len(v)
    if n < 8:
        res = 0.0
        for x in v:
            res += x
        return res
    if n <= 128:
        stop = n - n % 8
        r = v[:8]
        for i in range(8, stop, 8):
            r = list(map(add, r, v[i : i + 8]))
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in v[stop:]:
            res += x
        return 0.0 + res
    half = n // 2 - n // 2 % 8
    return 0.0 + (_sum(v[:half]) + _sum(v[half:]))


def _smooth_row(v: list[float], window: int) -> list[float]:
    # Window i holds days i-window+1..i; NaN stands in for days before the start.
    padded = [math.nan] * (window - 1) + v
    out = []
    for i in range(len(v)):
        win = padded[i : i + window]
        present = [x for x in win if x == x]  # NaN equals nothing
        if present:
            base = present[0]
            out.append(base + _sum([x - base if x == x else 0.0 for x in win]) / len(present))
        else:
            out.append(math.nan)
    return out


def smooth(s: Series, window: int) -> Series:
    """Trailing moving average over the present values of the last ``window`` days.

    The leading edge averages the available prefix; a window with no present
    values yields a missing day. The mean is computed relative to the first
    present value in the window, so constant stretches come out exactly
    constant: each window sums its deviations from that value, a missing day
    or a day before the start counting 0.0, and divides by the present count.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return s._replace(values=[_smooth_row(v, window) for v in s.values])


def gradient(s: Series) -> Series:
    """Central differences inside, one-sided at the two ends.

    g[i] = (v[i+1] - v[i-1]) / 2 for interior days; any day whose stencil
    touches a missing value is itself missing.
    """
    if s.days < 2:
        raise ValueError("gradient needs at least 2 points")
    return s._replace(values=[
        [v[1] - v[0]]
        + [(v[i + 1] - v[i - 1]) / 2.0 for i in range(1, len(v) - 1)]
        + [v[-1] - v[-2]]
        for v in s.values
    ])


def smoothed_gradient(raw: Series, window: int) -> tuple[Series, Series]:
    """``(smoothed, sg)``: ``smoothed = smooth(raw, window)``, and ``sg``, the
    signal peaks are detected on, ``smoothed`` differentiated and smoothed again."""
    smoothed = smooth(raw, window)
    return smoothed, smooth(gradient(smoothed), window)


def _candidate_indices(v: list[float]) -> list[int]:
    """Strict local maxima; a plateau reports its leftmost index.

    Boundary days never qualify. A NaN equals nothing and compares false, so
    it is never a peak and disqualifies the runs beside it (an unknown
    neighbor cannot be known to be lower).
    """
    n = len(v)
    peaks: list[int] = []
    i = 0
    while i < n:
        x = v[i]
        j = i
        while j + 1 < n and v[j + 1] == x:
            j += 1
        if i > 0 and j < n - 1 and v[i - 1] < x and v[j + 1] < x:
            peaks.append(i)
        i = j + 1
    return peaks


def _prominence(v: list[float], i: int) -> float:
    """Height above the higher of the two side minima.

    Each side walk runs to the nearest strictly higher present value or the
    series boundary; missing values are skipped (unknown terrain neither
    stops the walk nor lowers the minimum).
    """
    h = v[i]
    side_mins = []
    for step in (-1, 1):
        m = math.inf
        j = i + step
        while 0 <= j < len(v):
            x = v[j]
            if x == x:  # present
                if x > h:
                    break
                if x < m:
                    m = x
            j += step
        side_mins.append(m)
    return h - max(side_mins)


def find_peaks(s: Series) -> list[list[Peak]]:
    """Each row's candidate peaks with their prominences, in index order."""
    return [[
        Peak(date=s.start + timedelta(days=i), index=i, height=v[i], prominence=_prominence(v, i))
        for i in _candidate_indices(v)
    ] for v in s.values]


def filter_peaks(peaks: Sequence[Peak], sigma_mult: float = 1.0) -> list[Peak]:
    """Keep candidates with prominence strictly above mean + sigma_mult*std.

    The statistics are computed over the candidate prominences themselves
    (population standard deviation). An empty candidate list stays empty.
    """
    if not peaks:
        return []
    threshold = _threshold([p.prominence for p in peaks], sigma_mult)
    return [p for p in peaks if p.prominence > threshold]


def _threshold(proms: list[float], sigma_mult: float) -> float:
    """mean + sigma_mult * population std, as NumPy's ``mean`` and ``std``."""
    mean = _sum(proms) / len(proms)
    std = math.sqrt(_sum([(x - mean) * (x - mean) for x in proms]) / len(proms))
    return mean + sigma_mult * std


def marker_peaks(sg: Series, sigma_mult: float = 1.0) -> dict[str, list[Peak]]:
    """Signed change peaks of each marker, given the markers' smoothed
    gradients ``sg``: one list per name, in row order.

    Rises and falls are detected separately: once on a row and once on its
    negation (fall peaks score the magnitude of decrease), each followed by
    its own prominence filter. Results are merged in date order.
    """
    neg = sg._replace(values=[[-x for x in v] for v in sg.values])
    return {name: sorted(
        filter_peaks(rises, sigma_mult)
        + [p._replace(direction=FALL) for p in filter_peaks(falls, sigma_mult)],
        key=lambda p: (p.index, p.direction),
    ) for name, rises, falls in zip(sg.names, find_peaks(sg), find_peaks(neg))}


def _zscore(v: list[float]) -> list[float]:
    """Center and scale by the population std of present values; flat -> zeros,
    a row with no present value as it is.

    As NumPy's ``nanmean`` and ``nanstd`` do, a missing day counts 0.0 in
    each sum and the sums are divided by the present count.
    """
    n = sum(x == x for x in v)
    if not n:
        return v
    mean = _sum([x if x == x else 0.0 for x in v]) / n
    dev = [x - mean if x == x else 0.0 for x in v]
    std = math.sqrt(_sum([d * d for d in dev]) / n)
    if std == 0.0:
        return [0.0] * len(v)
    return [(x - mean) / std for x in v]


def joint_peaks(sg: Series, sigma_mult: float = 1.0) -> list[Peak]:
    """Moments when several markers vary together.

    ``sg`` holds the markers' smoothed gradients, one row each. Each row is
    z-normalized and folded to absolute magnitude; the pointwise mean across
    rows is the joint variation signal, peak-detected and prominence-filtered
    like any other. A joint peak's direction reports whether the markers'
    signed changes were, on average, rising or falling at that moment.
    """
    if not sg.values:
        raise ValueError("need at least one marker row")
    zs = [_zscore(row) for row in sg.values]
    combined, signed_mean = [], []
    for day in zip(*zs):  # each day's sums add the rows in order, from 0.0
        magnitude = signed = 0.0
        for z in day:
            magnitude += abs(z)
            signed += z
        combined.append(magnitude / len(zs))
        signed_mean.append(signed / len(zs))
    (candidates,) = find_peaks(sg._replace(names=(JOINT,), values=[combined]))
    peaks = filter_peaks(candidates, sigma_mult)
    return [
        p._replace(direction=RISE if signed_mean[p.index] >= 0 else FALL)
        for p in peaks
    ]


PEAK_COLUMNS = ("date", "marker", "direction", "height", "prominence")


def peak_cells(marker: str, p: Peak) -> list[str]:
    """A peak's CSV cells, in the order of ``PEAK_COLUMNS``."""
    return [p.date.isoformat(), marker, p.direction, repr(p.height), repr(p.prominence)]


def write_peaks_csv(path: str | Path, peaks_by_marker: dict[str, list[Peak]]) -> None:
    """CSV of peaks: date, marker (or ``JOINT``), direction, height, prominence."""
    write_csv(path, PEAK_COLUMNS, (
        peak_cells(marker, p)
        for marker in sorted(peaks_by_marker) for p in peaks_by_marker[marker]
    ))


def write_series_csv(path: str | Path, smoothed: Series, sg: Series) -> None:
    """Long CSV of derived series: date, category, kind, percent (blank = missing).

    Each row of ``smoothed`` is written, in row order, with its days of kind
    ``smoothed`` and then its days of ``sg``, its smoothed gradient, of kind
    ``smoothed_gradient``. Series whose names, start or days differ are a
    ``ValueError``.
    """
    if (sg.names, sg.start, sg.days) != (smoothed.names, smoothed.start, smoothed.days):
        raise ValueError("smoothed and sg must have the same rows and days")
    days = [d.isoformat() for d in smoothed.dates()]
    write_csv(path, ["date", "category", "kind", "percent"], (
        [d, name, kind, cell(x)]
        for name, row, grad in zip(smoothed.names, smoothed.values, sg.values)
        for kind, values in (("smoothed", row), ("smoothed_gradient", grad))
        for d, x in zip(days, values)
    ))
