"""Output checks: each command's files against the generator's ground truth."""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date
from pathlib import Path

from workloads import LEAD_DAYS, Truth, Workload


def check_prevalence(path: Path, truth: Truth) -> list[str]:
    """Matched and total counts per (day, category) equal the planted ones."""
    n_days = (truth.end - truth.start).days + 1
    seen = set()
    problems = []
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            cat, i = row["category"], (date.fromisoformat(row["date"]) - truth.start).days
            seen.add((cat, i))
            if cat not in truth.matched or not 0 <= i < n_days:
                problems.append(f"prevalence.csv: unexpected row {row['date']} {cat}")
            elif (int(row["matched"]), int(row["total"])) != (truth.matched[cat][i],
                                                               truth.totals[i]):
                problems.append(
                    f"prevalence.csv: {row['date']} {cat} is {row['matched']}/{row['total']},"
                    f" expected {truth.matched[cat][i]}/{truth.totals[i]}")
    if len(seen) != len(truth.matched) * n_days:
        problems.append(f"prevalence.csv: {len(seen)} rows, expected "
                        f"{len(truth.matched) * n_days}")
    return problems[:5]


def check_heatmap(path: Path, truth: Truth) -> list[str]:
    """One cell per marker per day; other rects (background, hatching) have no x."""
    cells = path.read_text(encoding="utf-8").count("<rect x=")
    expected = len(truth.matched) * ((truth.end - truth.start).days + 1)
    return [] if cells == expected else [f"heatmap.svg: {cells} cells, expected {expected}"]


def check_burst(path: Path, truth: Truth) -> list[str]:
    """A JOINT rise peak follows the planted burst within the look-back lead."""
    with path.open(encoding="utf-8", newline="") as fh:
        rises = [date.fromisoformat(r["date"]) for r in csv.DictReader(fh)
                 if r["marker"] == "JOINT" and r["direction"] == "rise"]
    if any(0 <= (d - truth.burst).days <= LEAD_DAYS for d in rises):
        return []
    return [f"peaks.csv: no JOINT rise within {LEAD_DAYS} days after the burst on "
            f"{truth.burst}; rises at {[d.isoformat() for d in rises]}"]


def check_stats(path: Path, truth: Truth) -> list[str]:
    got = json.loads(path.read_text(encoding="utf-8"))
    if got == truth.stats:
        return []
    keys = sorted(k for k in set(got) | set(truth.stats) if got.get(k) != truth.stats.get(k))
    return [f"stats.json differs from the naive oracle in {', '.join(keys)}"]


def check_expand(out: Path, truth: Truth) -> list[str]:
    problems = []
    for construct, category in sorted(truth.expand_top.items()):
        ranked = json.loads((out / "mappings" / f"{construct}.json")
                            .read_text(encoding="utf-8"))["ranked"]
        top = ranked[0]["category"] if ranked else None
        if top != category:
            problems.append(f"expand: {construct} ranks {top} first, planted {category}")
    return problems


def check_command(label: str, out: Path, truth: Truth) -> list[str]:
    """Problems with one command's outputs; empty when they are correct."""
    try:
        if label == "stats":
            return check_stats(out / "stats.json", truth)
        if label == "expand":
            return check_expand(out, truth)
        problems = check_prevalence(out / "prevalence.csv", truth)
        problems += check_heatmap(out / "heatmap.svg", truth)
        if truth.burst is not None:
            problems += check_burst(out / "peaks.csv", truth)
        return problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{label}: unreadable output: {exc!r}"]


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, by relative path."""
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def output_bytes(wl: Workload) -> int:
    return sum(p.stat().st_size for c in wl.commands if c.out.is_dir()
               for p in c.out.rglob("*") if p.is_file())
