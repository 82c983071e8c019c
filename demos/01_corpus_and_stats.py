"""
Corpus ingestion and statistics
===============================

Look at how the text normalizer treats URLs, mentions and hashtags, write
a small line-delimited tweet export, see the record each line becomes, and
compute exact corpus statistics.
"""

import json
import tempfile
from pathlib import Path

from crisismon import Corpus, ParseReport, corpus_stats, preprocess, split_hashtag
from crisismon.corpus import records

# --- the normalizer ---------------------------------------------------------
# URLs and @mentions disappear; hashtags are split into their words;
# punctuation separates; accents survive; nothing is stemmed.

for text in [
    "Vamos!! #QuedateEnCasa http://t.co/x @juan",
    "covid-19 es grave… pero saldremos",
    "La CUARENTENA sigue #Covid19Argentina",
]:
    print(f"{text!r:55} -> {preprocess(text)}")

print()
print("hashtag splitting:", split_hashtag("QuedateEnCasa"), split_hashtag("covid19"))
print()

# --- a small corpus ---------------------------------------------------------
# One JSON object per line with id, created_at, text, kind, user_id.
# The second line is deliberately corrupt: lenient parsing skips and counts it.

lines = [
    json.dumps({"id": "1", "created_at": "2020-03-05T14:00:00Z",
                "text": "Primer caso confirmado #Coronavirus", "kind": "original",
                "user_id": "ana"}),
    '{"id": "2", "created_at": ...broken...',
    json.dumps({"id": "3", "created_at": "2020-03-05T23:30:00Z",
                "text": "RT alguien dijo algo", "kind": "retweet",
                "user_id": "beto"}),
    json.dumps({"id": "4", "created_at": "2020-03-06T02:30:00-03:00",
                "text": "respuesta tranquila", "kind": "reply",
                "user_id": "ana"}),
]

# records() is the one loop from a line to a checked (object, kind, day).
# Day bucketing uses a fixed offset, UTC-3 by default: 23:30 UTC on March 5
# is still March 5 in Buenos Aires. Retweets are counted in the statistics
# but carry no new text, so analyze leaves them out.
report = ParseReport()
for obj, kind, day in records(lines, report=report):
    print(f"  {obj['id']}: kind={kind:8} created={obj['created_at']:25} -> day {day}"
          f"  analyzable={kind != 'retweet'}")
print(f"parsed {report.parsed} tweets, skipped {report.skipped} malformed line(s)")

# --- statistics -------------------------------------------------------------
# The command line's `stats` reads the same lines from a file.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    report = ParseReport()
    stats = corpus_stats(Corpus((str(path),)), workers=1, report=report)
print()
for lineno, reason, source in report.examples:
    print(f"skipped line {lineno} of {Path(source).name}: {reason}")
print(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True))
