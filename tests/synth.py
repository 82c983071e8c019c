"""Deterministic synthetic corpora shared by CLI and acceptance tests."""

from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

BURST_MARKERS = {"alfa": "palabraalfa", "beta": "palabrabeta", "gama": "palabragama"}


def burst_category_set() -> dict:
    return {
        "name": "synthetic",
        "categories": {name: [tok] for name, tok in BURST_MARKERS.items()},
    }


def planted_burst_lines(
    seed: int = 20,
    n_days: int = 90,
    per_day: int = 200,
    baseline: float = 0.05,
    burst: float = 0.30,
    burst_start: int = 40,
    burst_len: int = 3,
    start: date = date(2020, 3, 1),
) -> list[str]:
    """JSONL corpus with a planted prevalence burst for all burst markers.

    Each tweet independently contains each marker token with the day's rate
    (baseline, or ``burst`` during the burst window).
    """
    rng = random.Random(seed)
    filler = [f"relleno{c}{d}" for c in "abcdefghij" for d in "klmnop"]
    lines = []
    i = 0
    for d in range(n_days):
        rate = burst if burst_start <= d < burst_start + burst_len else baseline
        day = start + timedelta(days=d)
        created = datetime(day.year, day.month, day.day, 12, 0, tzinfo=timezone.utc)
        for _ in range(per_day):
            words = [rng.choice(filler) for _ in range(8)]
            for tok in BURST_MARKERS.values():
                if rng.random() < rate:
                    words.insert(rng.randrange(len(words) + 1), tok)
            lines.append(
                json.dumps(
                    {
                        "id": f"s{i}",
                        "created_at": created.isoformat(),
                        "text": " ".join(words),
                        "kind": "original",
                        "user_id": f"u{rng.randrange(500)}",
                    }
                )
            )
            i += 1
    return lines


def write_docs(path: Path, docs) -> str:
    """Write ``(day, text)`` pairs as a corpus file, one original tweet per
    pair at noon UTC, which is the same day at UTC-3; return the path."""
    path.write_text("".join(
        json.dumps({"id": f"d{i}", "created_at": f"{day.isoformat()}T12:00:00Z", "text": text,
                    "kind": "original", "user_id": "u1"}, ensure_ascii=False) + "\n"
        for i, (day, text) in enumerate(docs)), encoding="utf-8")
    return str(path)


def write_burst_workspace(tmp_path: Path, **kwargs) -> dict:
    """Materialize corpus + categories + config files; returns the paths."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(planted_burst_lines(**kwargs)) + "\n", encoding="utf-8")
    cats = tmp_path / "categories.json"
    cats.write_text(json.dumps(burst_category_set()), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus": [str(corpus)],
                "categories": str(cats),
                "date_from": "2020-03-01",
                "date_to": "2020-05-29",
                "out": str(tmp_path / "out"),
            }
        ),
        encoding="utf-8",
    )
    return {"corpus": corpus, "categories": cats, "config": config,
            "out": tmp_path / "out"}
