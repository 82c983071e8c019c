"""
Matching tweets against category sets
=====================================

Compile a category set into a single multi-pattern matcher, run a corpus
file through it, and aggregate daily prevalence percentages: for each
category, the share of that day's tweets containing at least one of its
terms.
"""

import json
import random
import tempfile
from datetime import date, timedelta
from pathlib import Path

from crisismon import (Corpus, aggregate_daily, build_matcher, load_category_set,
                       preprocess)

DATA = Path(__file__).resolve().parent.parent / "data"

cats = load_category_set(DATA / "categories" / "demo_categories_es.json")
matcher = build_matcher(cats)
print(f"compiled {len(matcher)} categories into one matcher")

# --- single documents ---------------------------------------------------------
# Membership is binary: one hit or ten hits of a category count the same.
# Multiword terms ("cadena nacional") must appear as consecutive tokens;
# "cadena de emisión nacional" does not trigger communication.
for text in [
    "Tengo miedo y mucha ansiedad hoy",
    "tuve un ataque de pánico anoche",
    "hubo cadena nacional a la tarde",
    "cadena de emisión nacional",
    "triste triste triste",
]:
    print(f"  {text!r:40} -> {sorted(matcher.match(preprocess(text)))}")

# --- a month of synthetic traffic ----------------------------------------------
# Fear-related chatter ramps up in the second half of the month. Each tweet is
# one JSON line, posted at noon UTC (9:00 in Buenos Aires, the same day).
rng = random.Random(99)
start = date(2020, 3, 1)
filler = "hoy vimos algo en la ciudad y después volvimos a casa".split()
lines = []
for d in range(31):
    p_fear = 0.05 if d < 15 else 0.25
    for i in range(120):
        words = rng.sample(filler, 5)
        if rng.random() < p_fear:
            words.append(rng.choice(["miedo", "pánico", "temor"]))
        if rng.random() < 0.10:
            words.append("salud")
        lines.append(json.dumps({"id": f"{d}-{i}",
                                 "created_at": f"{start + timedelta(days=d)}T12:00:00Z",
                                 "text": " ".join(words), "kind": "original",
                                 "user_id": f"u{i}"}, ensure_ascii=False))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    agg = aggregate_daily(Corpus((str(path),)), matcher, start, date(2020, 3, 31))

print("\nday        total   fear%   health%")
# One row per category, in the matcher's order; one column per day.
pct = dict(zip(agg.prevalence, agg.percent()))
fear, health = pct["fear"], pct["health"]
for i, total in enumerate(agg.prevalence["fear"].total.tolist()):
    day = start + timedelta(days=i)
    bar = "#" * int(fear[i] / 2)
    print(f"{day}  {total:5}  {fear[i]:6.2f}  {health[i]:7.2f}  {bar}")

# The same counts serialize to a long-format CSV with
# crisismon.write_prevalence_csv(path, agg) for downstream runs.
