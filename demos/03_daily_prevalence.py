"""
Matching tweets against category sets
=====================================

Compile a category set into a single multi-pattern matcher, run a stream
of documents through it, and aggregate daily prevalence percentages: for
each category, the share of that day's tweets containing at least one of
its terms.
"""

import random
from datetime import date, timedelta
from pathlib import Path

from crisismon import (TokenizedDoc, aggregate_daily, build_matcher,
                       load_category_set, preprocess)

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
    doc = TokenizedDoc("x", date(2020, 3, 1), tuple(preprocess(text)))
    print(f"  {text!r:40} -> {sorted(matcher.match(doc.tokens))}")

# --- a month of synthetic traffic ----------------------------------------------
# Fear-related chatter ramps up in the second half of the month.
rng = random.Random(99)
start = date(2020, 3, 1)
filler = "hoy vimos algo en la ciudad y después volvimos a casa".split()
docs = []
for d in range(31):
    p_fear = 0.05 if d < 15 else 0.25
    for i in range(120):
        words = rng.sample(filler, 5)
        if rng.random() < p_fear:
            words.append(rng.choice(["miedo", "pánico", "temor"]))
        if rng.random() < 0.10:
            words.append("salud")
        docs.append(TokenizedDoc(f"{d}-{i}", start + timedelta(days=d), tuple(words)))

agg = aggregate_daily(docs, matcher, start, date(2020, 3, 31))

print("\nday        total   fear%   health%")
fear, health = agg.prevalence["fear"].percent(), agg.prevalence["health"].percent()
for i, total in enumerate(agg.prevalence["fear"].total.tolist()):
    day = start + timedelta(days=i)
    bar = "#" * int(fear[i] / 2)
    print(f"{day}  {total:5}  {fear[i]:6.2f}  {health[i]:7.2f}  {bar}")

# The same counts serialize to a long-format CSV with
# crisismon.write_prevalence_csv(path, agg) for downstream runs.
