"""Reporting: SVG heatmaps, peak-to-event annotation, stage prevalence tables.

Heatmaps and stage tables take a markers × days ``Series`` and label each
row by its name. Heatmaps draw one row per marker and one cell per day; darker
means higher. Values are min-max normalized per heatmap so rows are
comparable within one figure, and the gray ramp is strictly monotone: two
different values never share a fill. Missing days render as a hatched cell. Output is plain SVG 1.1
built by string assembly, so identical inputs produce identical bytes.

Event annotation looks back a configurable number of days before each peak
(default 6: the smoothing window minus the peak day), because trailing
smoothing delays a series' response to its cause.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import cell, iso_date, read_csv, write_csv
from .series import JOINT, PEAK_COLUMNS, Peak, Series, _sum, peak_cells

DEFAULT_EVENT_LEAD_DAYS = 6
CELL_W = 8.0  # heatmap cell geometry
CELL_H = 16.0
LIGHT = 96.0  # luminance percent at the minimum value
DARK = 12.0  # luminance percent at the maximum value
StageRow = tuple[str, str, float | None]  # marker, stage, max_pct_diff (None: undefined)


class StageWindow(NamedTuple):
    """A labeled, inclusive date range; stages may overlap."""

    stage: str
    start: date
    end: date


class EventRecord(NamedTuple):
    date: date
    description: str


def _fill(norm: float) -> str:
    lum = f"{LIGHT - norm * (LIGHT - DARK):.6f}%"
    return f"rgb({lum},{lum},{lum})"


def render_heatmap(rows: Series) -> bytes:
    """Render every day of ``rows`` as a deterministic SVG heatmap.

    ``rows`` is markers × days; each row is drawn under its name, top down.
    """
    if not rows.names:
        raise ValueError("heatmap needs at least one marker row")

    present = [v for row in rows.values for v in row if v == v]  # NaN equals nothing
    vmin, vmax = (min(present), max(present)) if present else (0.0, 0.0)
    flat = vmax == vmin  # degenerate normalization: everything mid-ramp

    n_days = rows.days
    left = 10.0 + 7.2 * max(len(m) for m in rows.names)
    top = 30.0
    width = left + n_days * CELL_W + 10.0
    height = top + len(rows.values) * CELL_H + 10.0

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">'
    )
    parts.append(
        '<defs><pattern id="missing" width="6" height="6" '
        'patternUnits="userSpaceOnUse">'
        '<rect width="6" height="6" fill="#ffffff"/>'
        '<path d="M0,6 L6,0" stroke="#bbbbbb" stroke-width="1"/>'
        "</pattern></defs>"
    )
    parts.append(f'<rect width="{width:.1f}" height="{height:.1f}" fill="#ffffff"/>')

    # Month labels along the top edge.
    for di, d in enumerate(rows.dates()):
        if d.day == 1 or di == 0:
            x = left + di * CELL_W
            parts.append(
                f'<line x1="{x:.2f}" y1="{top - 6:.2f}" x2="{x:.2f}" '
                f'y2="{top:.2f}" stroke="#444444" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{top - 10:.2f}" font-family="monospace" '
                f'font-size="11" fill="#222222">{d.strftime("%Y-%m")}</text>'
            )

    # A cell's text up to its y, per day, and from its y to its fill, formatted once.
    heads = [f'<rect x="{left + di * CELL_W:.2f}" y="' for di in range(n_days)]
    size = f'" width="{CELL_W:.2f}" height="{CELL_H:.2f}" fill="'
    for ri, (marker, values) in enumerate(zip(rows.names, rows.values)):
        y = top + ri * CELL_H
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y + CELL_H * 0.72:.2f}" '
            f'font-family="monospace" font-size="12" text-anchor="end" '
            f'fill="#111111">{_xml_escape(marker)}</text>'
        )
        mid = f"{y:.2f}{size}"
        for head, v in zip(heads, values):
            if v != v:
                fill = "url(#missing)"
            else:
                fill = _fill(0.5 if flat else (v - vmin) / (vmax - vmin))
            parts.append(f'{head}{mid}{fill}"/>')

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# The characters XML 1.0 forbids that a UTF-8 input can hold.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _xml_escape(text: str) -> str:
    """``text`` as XML character data; a character XML forbids shows as U+FFFD."""
    return (
        _NOT_XML.sub("\ufffd", text)
        .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def annotate_peaks(
    peaks: Sequence[Peak],
    events: Sequence[EventRecord],
    lead: int = DEFAULT_EVENT_LEAD_DAYS,
) -> list[tuple[Peak, list[EventRecord]]]:
    """Attach to each peak the events within [peak - lead, peak], date-sorted;
    a look-back past 0001-01-01 stops there."""
    if lead < 0:
        raise ValueError("lead must be >= 0")
    ordered = sorted(events, key=lambda e: (e.date, e.description))
    out = []
    for p in peaks:
        lo = p.date - timedelta(days=min(lead, (p.date - date.min).days))
        out.append((p, [e for e in ordered if lo <= e.date <= p.date]))
    return out


def stage_prevalence_table(rows: Series, stages: Sequence[StageWindow]) -> list[StageRow]:
    """Maximum percentage difference from each marker's overall median, per stage.

    ``rows`` is markers × days; the table lists the markers in row order,
    each with every stage. The median is
    taken over the marker's present values across its full span; each stage
    cell is the maximum of 100*(v - median)/median over the present days
    inside the stage window. A zero median, or a stage window with no
    present days in range, yields an undefined (None) cell.

    The median is NumPy's: the mean of the one or two middle values.
    """
    table: list[StageRow] = []
    for marker, v in zip(rows.names, rows.values):
        present = sorted(x for x in v if x == x)  # NaN equals nothing
        middle = present[(len(present) - 1) // 2 : len(present) // 2 + 1]
        median = _sum(middle) / len(middle) if middle else None
        for w in stages:
            lo = max((w.start - rows.start).days, 0)
            hi = min((w.end - rows.start).days, rows.days - 1)
            # An undefined or zero median, or a window off the span, leaves no days.
            seg = [x for x in v[lo : hi + 1] if x == x] if median and lo <= hi else []
            # A finite median gives no NaN here, an infinite or NaN one only NaN,
            # so ``max`` agrees with NumPy's NaN-propagating maximum.
            diffs = [100.0 * (x - median) / median for x in seg]
            table.append((marker, w.stage, max(diffs) if diffs else None))
    return table


def load_events_csv(path: str | Path) -> list[EventRecord]:
    """Events CSV: header ``date,description``, ``YYYY-MM-DD`` dates, UTF-8 text;
    a description is not blank."""
    def event(row: dict[str, str]) -> EventRecord:
        day, description = iso_date(row["date"]), row["description"].strip()
        if not description:
            raise ValueError("event description must be non-empty")
        return EventRecord(day, description)

    return read_csv(path, ["date", "description"], event)


def load_stages_csv(path: str | Path) -> list[StageWindow]:
    """Stage windows CSV: header ``stage,start,end``, ``YYYY-MM-DD`` dates; a
    window is named by more than blanks, does not end before it starts, and may overlap."""
    def window(row: dict[str, str]) -> StageWindow:
        stage, start, end = row["stage"], iso_date(row["start"]), iso_date(row["end"])
        if not stage.strip():
            raise ValueError("stage name must be non-empty")
        if start > end:
            raise ValueError(f"stage {stage!r}: start after end")
        return StageWindow(stage, start, end)

    return read_csv(path, ["stage", "start", "end"], window)


def write_stage_table_csv(path: str | Path, rows: Sequence[StageRow]) -> None:
    """Stage table CSV: marker,stage,max_pct_diff (blank = undefined)."""
    write_csv(path, ["marker", "stage", "max_pct_diff"],
              ([marker, stage, cell(value)] for marker, stage, value in rows))


def write_annotations_csv(
    path: str | Path,
    annotated: Sequence[tuple[Peak, list[EventRecord]]],
) -> None:
    """One row per (joint peak, event); peaks without events keep one blank-event row."""
    rows = []
    for peak, events in annotated:
        base = peak_cells(JOINT, peak)
        if events:
            rows += [base + [e.date.isoformat(), e.description] for e in events]
        else:
            rows.append(base + ["", ""])
    write_csv(path, [*PEAK_COLUMNS, "event_date", "event_description"], rows)
