"""Time-series smoothing, gradients, and prominence-based peak detection.

A ``Series`` holds days, or markers × days: rows are markers and the last
axis is days from ``start``. ``len`` counts days, indexing selects rows, and
``smooth``, ``gradient`` and ``smoothed_gradient`` work along the last axis,
each row exactly as it would alone.

A day with no signal is NaN, never 0: missing propagates through gradients,
excludes itself from window means, and never hosts a peak.

Peaks are detected on the *smoothed gradient* of a prevalence series
(trailing moving average, then central-difference gradient, then the same
moving average again). A caller derives it once for all markers,
``smoothed_gradient(smooth(raw, w), w)``, and hands its rows to
``marker_peaks`` and ``joint_peaks``; neither derives it again. The trailing
window makes the series respond slowly to recent changes, so a detected
change lags its cause by up to a window.
Candidate peaks are strict local maxima (plateaus count once, at their
leftmost index), scored by topographic prominence: height above the higher
of the two minima separating the peak from higher terrain on either side.
Only candidates with prominence above the candidate mean plus ``sigma_mult``
population standard deviations survive filtering; with a single candidate
(or all-equal prominences) the strict inequality keeps nothing.

The peak walks run over Python floats from ``tolist()``, not NumPy scalars;
the same comparisons and subtraction give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import cell, write_csv

RISE = "rise"
FALL = "fall"


@dataclass(frozen=True)
class Series:
    """Contiguous daily values, days or markers × days; NaN marks a missing day."""

    start: date
    values: np.ndarray  # float64
    kind: str = "raw"  # raw | smoothed | gradient

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2):
            raise ValueError("series values must be days or markers x days")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[-1]

    def __getitem__(self, rows) -> "Series":
        """Row ``rows`` (an index) or the rows listed in ``rows``, same days."""
        return replace(self, values=self.values[rows])

    def dates(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(len(self))]

    def date_of(self, index: int) -> date:
        return self.start + timedelta(days=int(index))

    def index_of(self, d: date) -> int:
        i = (d - self.start).days
        if i < 0 or i >= len(self):
            raise ValueError(f"{d} outside series range")
        return i

    def crop(self, start: date, end: date) -> "Series":
        """The days [start, end] of every row; both must lie inside."""
        i0 = self.index_of(start)
        i1 = self.index_of(end)
        if i1 < i0:
            raise ValueError(f"start {start} after end {end}")
        return replace(self, start=start, values=self.values[..., i0 : i1 + 1])


@dataclass(frozen=True)
class Peak:
    date: date
    index: int
    height: float
    prominence: float
    direction: str = RISE


def smooth(s: Series, window: int) -> Series:
    """Trailing moving average over the present values of the last ``window`` days.

    The leading edge averages the available prefix; a window with no present
    values yields a missing day. The mean is computed relative to the first
    present value in the window, so constant stretches come out exactly
    constant. All days are computed in one pass over a (days x window) view.
    """
    if s.kind not in ("raw", "gradient"):
        raise ValueError(f"cannot smooth a series of kind {s.kind!r}")
    if window < 1:
        raise ValueError("window must be >= 1")
    v = s.values
    # Window i holds days i-window+1..i; NaN padding stands in for days before
    # the start (``window`` of them, so an empty series still has one view).
    pad = np.full(v.shape[:-1] + (window,), np.nan)
    padded = np.concatenate([pad, v], axis=-1)
    wins = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1)[..., 1:, :]
    present = ~np.isnan(wins)
    first = present.argmax(axis=-1)[..., None]
    base = np.take_along_axis(wins, first, axis=-1)[..., 0]  # NaN if none present
    dev = np.where(present, wins - base[..., None], 0.0)
    with np.errstate(invalid="ignore"):
        out = base + dev.sum(axis=-1) / present.sum(axis=-1)
    return Series(start=s.start, values=out, kind="smoothed")


def gradient(s: Series) -> Series:
    """Central differences inside, one-sided at the two ends.

    g[i] = (v[i+1] - v[i-1]) / 2 for interior days; any day whose stencil
    touches a missing value is itself missing.
    """
    v = s.values
    if len(s) < 2:
        raise ValueError("gradient needs at least 2 points")
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / 2.0
    g[..., 0] = v[..., 1] - v[..., 0]
    g[..., -1] = v[..., -1] - v[..., -2]
    return Series(start=s.start, values=g, kind="gradient")


def smoothed_gradient(smoothed: Series, window: int) -> Series:
    """The signal peaks are detected on: differentiate, then smooth again.

    Takes the output of ``smooth(raw, window)``, so the first smoothing is
    shared with whatever else the caller shows of the marker; any other kind
    of series is a ``ValueError``.
    """
    if smoothed.kind != "smoothed":
        raise ValueError(f"smoothed_gradient needs a smoothed series, not {smoothed.kind!r}")
    return smooth(gradient(smoothed), window)


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


def find_peaks(s: Series) -> list[Peak]:
    """All candidate peaks with their prominences, in index order."""
    v = s.values.tolist()
    return [
        Peak(date=s.date_of(i), index=i, height=v[i], prominence=_prominence(v, i))
        for i in _candidate_indices(v)
    ]


def filter_peaks(peaks: Sequence[Peak], sigma_mult: float = 1.0) -> list[Peak]:
    """Keep candidates with prominence strictly above mean + sigma_mult*std.

    The statistics are computed over the candidate prominences themselves
    (population standard deviation). An empty candidate list stays empty.
    """
    if not peaks:
        return []
    proms = np.array([p.prominence for p in peaks])
    threshold = proms.mean() + sigma_mult * proms.std()
    return [p for p in peaks if p.prominence > threshold]


def marker_peaks(sg: Series, sigma_mult: float = 1.0) -> list[Peak]:
    """Signed change peaks of one marker, given its smoothed gradient ``sg``.

    Rises and falls are detected separately: once on ``sg`` and once on its
    negation (fall peaks score the magnitude of decrease), each followed by
    its own prominence filter. Results are merged in date order.
    """
    rises = filter_peaks(find_peaks(sg), sigma_mult)
    neg = replace(sg, values=-sg.values)
    falls = [
        replace(p, direction=FALL)
        for p in filter_peaks(find_peaks(neg), sigma_mult)
    ]
    return sorted(rises + falls, key=lambda p: (p.index, p.direction))


def _zscore(v: np.ndarray) -> np.ndarray:
    """Center and scale by the population std of present values; flat -> zeros,
    a row with no present value as it is."""
    if np.isnan(v).all():
        return v
    mean = np.nanmean(v)
    std = np.nanstd(v)
    if std == 0.0:
        return np.zeros_like(v)
    return (v - mean) / std


def joint_peaks(sg: Series, sigma_mult: float = 1.0) -> list[Peak]:
    """Moments when several markers vary together.

    ``sg`` holds the markers' smoothed gradients, one row each. Each row is
    z-normalized and folded to absolute magnitude; the pointwise mean across
    rows is the joint variation signal, peak-detected and prominence-filtered
    like any other. A joint peak's direction reports whether the markers'
    signed changes were, on average, rising or falling at that moment.
    """
    if sg.values.ndim != 2 or not len(sg.values):
        raise ValueError("need markers x days with at least one marker row")
    zs = np.vstack([_zscore(row) for row in sg.values])
    combined = Series(start=sg.start, values=np.abs(zs).mean(axis=0), kind="gradient")
    signed_mean = zs.mean(axis=0)
    peaks = filter_peaks(find_peaks(combined), sigma_mult)
    return [
        replace(p, direction=RISE if signed_mean[p.index] >= 0 else FALL)
        for p in peaks
    ]


def write_peaks_csv(path: str | Path, peaks_by_marker: dict[str, list[Peak]]) -> None:
    """CSV of peaks: date, marker (or JOINT), direction, height, prominence."""
    write_csv(path, ["date", "marker", "direction", "height", "prominence"], (
        [p.date.isoformat(), marker, p.direction, repr(p.height), repr(p.prominence)]
        for marker in sorted(peaks_by_marker) for p in peaks_by_marker[marker]
    ))


def write_series_csv(
    path: str | Path, names: Sequence[str], series_by_kind: dict[str, Series]
) -> None:
    """Long CSV of derived series: date, category, kind, percent (blank = missing).

    Each series of ``series_by_kind`` (e.g. ``"smoothed"``) holds one row per
    category, row ``i`` being ``names[i]``; all share one date axis. Rows are
    written in the order of ``names``, each row's kinds in sorted order.
    """
    kinds = sorted(series_by_kind)
    days = [d.isoformat() for d in series_by_kind[kinds[0]].dates()]
    values = {kind: series_by_kind[kind].values.tolist() for kind in kinds}
    write_csv(path, ["date", "category", "kind", "percent"], (
        [d, name, kind, cell(x)]
        for i, name in enumerate(names) for kind in kinds
        for d, x in zip(days, values[kind][i])
    ))
