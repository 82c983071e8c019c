"""
Change peaks on smoothed gradients
==================================

Prevalence series are noisy and weekly-periodic, so peaks are not taken on
the raw values: the series is smoothed with a trailing one-week window,
differentiated, and smoothed again. Candidate peaks of that signal (and of
its negation, for decreases) are scored by topographic prominence, and only
those above the candidate mean plus one standard deviation survive.
"""

from datetime import date

import numpy as np

from crisismon import (Series, filter_peaks, find_peaks, joint_peaks,
                       marker_peaks, smoothed_gradient)

rng = np.random.default_rng(11)
start = date(2020, 3, 1)


def sparkline(values, width=72):
    v = np.asarray(values, float)
    v = v[:: max(1, len(v) // width)]
    lo, hi = np.nanmin(v), np.nanmax(v)
    marks = " .:-=+*#%@"
    span = hi - lo or 1.0
    return "".join(
        " " if np.isnan(x) else marks[int((x - lo) / span * (len(marks) - 1))]
        for x in v
    )


# --- one marker with a burst ----------------------------------------------------
# A Series is markers x days as lists of floats, row i being the marker
# names[i]; a single marker is a series of one row. find_peaks returns one list
# per row, marker_peaks one per name.
raw = rng.normal(5.0, 0.4, 120)
raw[60:64] += 7.0  # four loud days
series = Series(start=start, names=("burst",), values=[raw.tolist()])

print("raw:              ", sparkline(raw))
smoothed, sg = smoothed_gradient(series, 7)
print("smoothed:         ", sparkline(smoothed.values[0]))
print("smoothed gradient:", sparkline(sg.values[0]))

candidates = find_peaks(sg)[0]
kept = filter_peaks(candidates, sigma_mult=1.0)
print(f"\n{len(candidates)} rise candidates, {len(kept)} above mean+sigma")

for p in marker_peaks(sg, sigma_mult=1.0)["burst"]:
    print(f"  {p.date}  {p.direction:4}  height={p.height:+.4f}  "
          f"prominence={p.prominence:.4f}")
# The rise lands within a window of the onset (trailing smoothing delays the
# response), and the matching fall marks the return to baseline.

# --- several markers varying together --------------------------------------------
# Joint peaks average the absolute z-scored smoothed gradients across markers:
# shared variation reinforces, independent noise averages out. The markers are
# the rows of one array, so each derivation is one call for all of them.
rows = []
for _ in range(4):
    v = rng.normal(5.0, 0.4, 120)
    v[60:63] += 6.0
    rows.append(v.tolist())
names = tuple(f"m{i}" for i in range(len(rows)))
_, markers = smoothed_gradient(Series(start=start, names=names, values=rows), 7)

print("\njoint peaks over 4 markers with a common burst at day 60:")
for p in joint_peaks(markers, sigma_mult=1.0):
    day = (p.date - start).days
    print(f"  day {day:3} ({p.date})  {p.direction:4}  prominence={p.prominence:.3f}")
