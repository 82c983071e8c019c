"""
Full pipeline: corpus to heatmap, annotated peaks and stage table
=================================================================

A 92-day synthetic Spanish corpus goes through the whole chain: write it as
JSONL, parse, filter, tokenize, match against the bundled demo categories,
aggregate, detect joint peaks, annotate them with the bundled March-2020
event timeline, render the prevalence heatmap, and compute the stage
prevalence table against illustrative crisis-stage windows.

Outputs land in demos/out/, or in the directory given as the one argument:

    python demos/05_full_report.py [OUT_DIR]
"""

import json
import random
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from crisismon import (Corpus, ParseReport, aggregate_daily, annotate_peaks,
                       build_matcher, joint_peaks, load_category_set,
                       load_events_csv, load_stages_csv, render_heatmap, Series,
                       smoothed_gradient, stage_prevalence_table)

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "out"
OUT.mkdir(exist_ok=True)

START, END = date(2020, 3, 1), date(2020, 5, 31)

# --- synthesize a corpus with a mid-March surge of fear/health chatter -----------
rng = random.Random(2020)
themes = {
    "fear": ["miedo", "pánico", "temor"],
    "health": ["salud", "contagio", "hospital", "barbijo"],
    "government": ["gobierno", "presidente", "medidas"],
    "sadness": ["triste", "tristeza", "pena"],
}
filler = "hoy mañana gente ciudad casa trabajo calle tiempo cosas día".split()

lines = []
n_days = (END - START).days + 1
for d in range(n_days):
    day = START + timedelta(days=d)
    surge = 1.0 + (2.5 if 12 <= d < 19 else 0.0)  # the March 13-19 surge
    for i in range(150):
        words = [rng.choice(filler) for _ in range(7)]
        for theme, toks in themes.items():
            base = {"fear": 0.06, "health": 0.10, "government": 0.12, "sadness": 0.05}[theme]
            boost = surge if theme in ("fear", "health") else 1.0
            if rng.random() < base * boost:
                words.append(rng.choice(toks))
        created = datetime(day.year, day.month, day.day, 15, tzinfo=timezone.utc)
        lines.append(json.dumps({
            "id": f"{d}-{i}", "created_at": created.isoformat(),
            "text": " ".join(words),
            "kind": rng.choice(["original", "original", "reply", "retweet"]),
            "user_id": f"u{rng.randrange(800)}",
        }))

corpus = OUT / "corpus.jsonl"
corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

# --- parse, filter, tokenize, match: one pass over the file -----------------------
cats = load_category_set(DATA / "categories" / "demo_categories_es.json")
report = ParseReport()
agg = aggregate_daily(Corpus((str(corpus),)), build_matcher(cats), START, END, report=report)
analyzable = sum(agg.totals)
print(f"{report.parsed} tweets, {analyzable} analyzable (retweets left out), across "
      f"{n_days} days, {len(agg.categories)} categories")

# --- joint peaks over the surged markers, annotated with real events --------------
# One named row per category, one column per day; rows are selected by name, and
# every derived series keeps that shape and those names.
markers = ["fear", "health", "nervousness", "sadness"]
smoothed, sg = smoothed_gradient(
    Series(agg.start, agg.categories, agg.percent()).select(markers), 7)
peaks = joint_peaks(sg)

events = load_events_csv(DATA / "events" / "mental_health.csv")
print("\njoint peaks and the events of the preceding week:")
for peak, matched in annotate_peaks(peaks, events, lead=6):
    print(f"  {peak.date}  {peak.direction}")
    for e in matched[:3]:
        print(f"      {e.date}  {e.description[:70]}")

# --- heatmap of the smoothed prevalence --------------------------------------------
svg = render_heatmap(smoothed)
(OUT / "heatmap.svg").write_bytes(svg)
print(f"\nwrote {OUT / 'heatmap.svg'} ({len(svg)} bytes; darker = more prevalent)")

# --- stage prevalence table ---------------------------------------------------------
stages = load_stages_csv(DATA / "stages" / "argentina_2020.csv")
print("\nmax % difference vs the marker's median, per stage window:")
header = "".join(f"{w.stage:>14}" for w in stages)
print(f"{'marker':12}{header}")
table = stage_prevalence_table(smoothed, stages)
for marker in markers:
    row = "".join(
        f"{(f'{cell:+.1f}' if cell is not None else 'n/a'):>14}"
        for m, _, cell in table if m == marker
    )
    print(f"{marker:12}{row}")
