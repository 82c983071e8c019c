"""The exact bytes of every output file.

Each input is tiny and holds a missing cell (NaN or None), a float whose
``repr`` needs 17 significant digits, and the non-ASCII name ``pánico``
where the format can carry one. A change to any writer that alters a byte
fails here. Every reader but the corpus's also reads past a leading UTF-8
byte order mark.
"""

import json
from datetime import date
from pathlib import Path

import pytest

from crisismon import (CategorySet, Corpus, DailyAggregate, EventRecord, Lexicon,
                       MarkerMapping, Peak, Series, aggregate_daily, build_matcher,
                       save_lexicon)
from crisismon import (knn, load_category_set, load_embeddings, load_events_csv,
                       load_lexicon, load_manifest, load_stages_csv)
from crisismon.cli import RunConfig, main
from crisismon.lexicon import save_marker_mapping
from crisismon.matching import read_prevalence_csv, write_prevalence_csv
from crisismon.reporting import write_annotations_csv, write_stage_table_csv
from crisismon.series import write_peaks_csv, write_series_csv

from synth import write_docs

D1, D2, D3 = date(2020, 3, 1), date(2020, 3, 2), date(2020, 3, 3)
THIRD = 0.1 + 0.2  # repr: 0.30000000000000004


def _aggregate(tmp: Path) -> DailyAggregate:
    cats = CategorySet(name="c", categories={
        "pánico": Lexicon("pánico", frozenset({("pánico",)})),
        "calma": Lexicon("calma", frozenset({("calma",)})),
    })
    corpus = write_docs(tmp / "corpus.jsonl", [(D1, "pánico"), (D1, "calma"), (D1, "otro"),
                                                (D3, "pánico calma")])
    # 1 of 3 documents is 33.333333333333336%; D2 has none, so it is missing.
    return aggregate_daily(Corpus((corpus,)), build_matcher(cats), D1, D3)


def _peak(day: date, height: float, prominence: float, direction: str = "rise") -> Peak:
    return Peak(date=day, index=(day - D1).days, height=height,
                prominence=prominence, direction=direction)


def _write_prevalence(path):
    write_prevalence_csv(path, _aggregate(path.parent))


def _series() -> tuple[Series, Series]:
    names = ("pánico", "calma")
    smoothed = Series(D1, names, [[THIRD, float("nan"), 1.0], [2.5, 0.0, -THIRD]])
    grad = Series(D1, names, [[float("nan"), 1e-17, 100.0], [1 / 3, 2.0, 3.0]])
    return smoothed, grad


def _write_series(path):
    write_series_csv(path, *_series())


def _write_peaks(path):
    write_peaks_csv(path, {
        "pánico": [_peak(D2, THIRD, 1 / 3), _peak(D3, -2.0, float("nan"), "fall")],
        "JOINT": [_peak(D1, 1.0, 0.5)],
        "calma": [],
    })


def _write_stage_table(path):
    write_stage_table_csv(path, [("pánico", "respuesta", THIRD),
                                 ("pánico", "recuperación", None),
                                 ("calma", "respuesta", -100.0)])


def _write_annotations(path):
    events = [EventRecord(D1, "cuarentena, fase 1"), EventRecord(D2, "pánico \"total\"")]
    write_annotations_csv(path, [(_peak(D2, THIRD, 1 / 3), events),
                                 (_peak(D3, -1.0, float("nan"), "fall"), [])])


def _save_lexicon(path):
    save_lexicon(Lexicon("pánico", frozenset({("pánico",), ("ataque", "de", "pánico"),
                                              ("miedo",)})), path)


def _save_marker_mapping(path):
    save_marker_mapping(MarkerMapping("pánico", (("miedo", 3), ("pánico", 3),
                                                 ("calma", 1))), path)


def _write_stats(path):
    corpus = path.parent / "corpus.jsonl"
    rows = [("1", "2020-03-01T10:00:00+00:00", "pánico #cuarentena", "original", "u1"),
            ("2", "2020-03-01T23:30:00+00:00", "RT calma", "retweet", "u2"),
            ("3", "2020-03-02T01:00:00-03:00", "otro", "reply", "u1"),
            ("4", "2020-03-03T12:00:00+00:00", "más", "original", "u3"),
            ("5", "2020-03-03T12:00:00+00:00", "más", "original", "u1")]
    corpus.write_text("".join(json.dumps(dict(zip(
        ("id", "created_at", "text", "kind", "user_id"), r)), ensure_ascii=False) + "\n"
        for r in rows), encoding="utf-8")
    assert main(["stats", "--out", str(path.parent / "out"), str(corpus)]) == 0
    path.write_bytes((path.parent / "out" / "stats.json").read_bytes())


EXPECTED = {
    "write_prevalence": (
        b'date,category,matched,total,percent\r\n'
        b'2020-03-01,calma,1,3,33.333333333333336\r\n'
        b'2020-03-02,calma,0,0,\r\n'
        b'2020-03-03,calma,1,1,100.0\r\n'
        b'2020-03-01,p\xc3\xa1nico,1,3,33.333333333333336\r\n'
        b'2020-03-02,p\xc3\xa1nico,0,0,\r\n'
        b'2020-03-03,p\xc3\xa1nico,1,1,100.0\r\n'
    ),
    "write_series": (
        b'date,category,kind,percent\r\n'
        b'2020-03-01,p\xc3\xa1nico,smoothed,0.30000000000000004\r\n'
        b'2020-03-02,p\xc3\xa1nico,smoothed,\r\n'
        b'2020-03-03,p\xc3\xa1nico,smoothed,1.0\r\n'
        b'2020-03-01,p\xc3\xa1nico,smoothed_gradient,\r\n'
        b'2020-03-02,p\xc3\xa1nico,smoothed_gradient,1e-17\r\n'
        b'2020-03-03,p\xc3\xa1nico,smoothed_gradient,100.0\r\n'
        b'2020-03-01,calma,smoothed,2.5\r\n'
        b'2020-03-02,calma,smoothed,0.0\r\n'
        b'2020-03-03,calma,smoothed,-0.30000000000000004\r\n'
        b'2020-03-01,calma,smoothed_gradient,0.3333333333333333\r\n'
        b'2020-03-02,calma,smoothed_gradient,2.0\r\n'
        b'2020-03-03,calma,smoothed_gradient,3.0\r\n'
    ),
    "write_peaks": (
        b'date,marker,direction,height,prominence\r\n'
        b'2020-03-01,JOINT,rise,1.0,0.5\r\n'
        b'2020-03-02,p\xc3\xa1nico,rise,0.30000000000000004,0.3333333333333333\r\n'
        b'2020-03-03,p\xc3\xa1nico,fall,-2.0,nan\r\n'
    ),
    "write_stage_table": (
        b'marker,stage,max_pct_diff\r\n'
        b'p\xc3\xa1nico,respuesta,0.30000000000000004\r\n'
        b'p\xc3\xa1nico,recuperaci\xc3\xb3n,\r\n'
        b'calma,respuesta,-100.0\r\n'
    ),
    "write_annotations": (
        b'date,marker,direction,height,prominence,event_date,event_description\r\n'
        b'2020-03-02,JOINT,rise,0.30000000000000004,0.3333333333333333,2020-03-01,"cuarentena, fase 1"\r\n'
        b'2020-03-02,JOINT,rise,0.30000000000000004,0.3333333333333333,2020-03-02,"p\xc3\xa1nico ""total"""\r\n'
        b'2020-03-03,JOINT,fall,-1.0,nan,,\r\n'
    ),
    "save_lexicon": (
        b'{\n'
        b'  "name": "p\xc3\xa1nico",\n'
        b'  "terms": [\n'
        b'    "ataque de p\xc3\xa1nico",\n'
        b'    "miedo",\n'
        b'    "p\xc3\xa1nico"\n'
        b'  ]\n'
        b'}\n'
    ),
    "save_marker_mapping": (
        b'{\n'
        b'  "construct": "p\xc3\xa1nico",\n'
        b'  "ranked": [\n'
        b'    {\n'
        b'      "category": "miedo",\n'
        b'      "count": 3\n'
        b'    },\n'
        b'    {\n'
        b'      "category": "p\xc3\xa1nico",\n'
        b'      "count": 3\n'
        b'    },\n'
        b'    {\n'
        b'      "category": "calma",\n'
        b'      "count": 1\n'
        b'    }\n'
        b'  ]\n'
        b'}\n'
    ),
    "write_stats": (
        b'{\n'
        b'  "original": 3,\n'
        b'  "per_day": {\n'
        b'    "2020-03-01": 2,\n'
        b'    "2020-03-02": 1,\n'
        b'    "2020-03-03": 2\n'
        b'  },\n'
        b'  "per_user": {\n'
        b'    "avg": 1.6666666666666667,\n'
        b'    "max": 3,\n'
        b'    "median": 1,\n'
        b'    "min": 1\n'
        b'  },\n'
        b'  "reply": 1,\n'
        b'  "retweet": 1,\n'
        b'  "total": 5,\n'
        b'  "users": 3,\n'
        b'  "with_hashtag": 1\n'
        b'}\n'
    ),
}


@pytest.mark.parametrize("write", [
    _write_prevalence, _write_series, _write_peaks, _write_stage_table,
    _write_annotations, _save_lexicon, _save_marker_mapping, _write_stats,
], ids=lambda write: write.__name__[1:])
def test_output_bytes_are_pinned(tmp_path, write):
    path = tmp_path / "output"
    write(path)
    assert path.read_bytes() == EXPECTED[write.__name__[1:]]


@pytest.mark.parametrize("mismatch", [
    lambda grad: grad.select(["calma", "pánico"]),
    lambda grad: Series(D2, grad.names, grad.values),
    lambda grad: grad.crop(D1, D2),
], ids=["rows-in-another-order", "another-start", "fewer-days"])
def test_a_gradient_that_does_not_fit_the_smoothed_rows_is_refused(tmp_path, mismatch):
    smoothed, grad = _series()
    path = tmp_path / "output"
    with pytest.raises(ValueError, match="the same rows and days"):
        write_series_csv(path, smoothed, mismatch(grad))
    assert not path.exists()


def _bom_inputs(data: Path) -> dict:
    """Each reader but the corpus's: the bytes of a valid input, and the reader."""
    lexicon = data / "lexicons" / "anxiety.json"
    return {
        "config": (b'{"k": 3, "out": "sal\xc3\xadda"}', RunConfig.from_file),
        "manifest": (json.dumps({"anxiety": str(lexicon)}).encode(), load_manifest),
        "lexicon": (lexicon.read_bytes(), load_lexicon),
        "category-set": ((data / "categories" / "demo_categories_es.json").read_bytes(),
                         load_category_set),
        "embeddings": (b"2 2\nmiedo 1 0\np\xc3\xa1nico 0 1\n",
                       lambda p: [knn(load_embeddings(p), t, 1) for t in ("miedo", "pánico")]),
        "events": ((data / "events" / "mental_health.csv").read_bytes(), load_events_csv),
        "stages": ((data / "stages" / "argentina_2020.csv").read_bytes(), load_stages_csv),
        "prevalence": (b"date,category,matched,total,percent\n2020-03-01,a,1,2,50.0\n",
                       read_prevalence_csv),
    }


@pytest.mark.parametrize("kind", ["config", "manifest", "lexicon", "category-set",
                                  "embeddings", "events", "stages", "prevalence"])
def test_a_leading_bom_is_read_past(tmp_path, data_dir, kind):
    body, read = _bom_inputs(data_dir)[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    assert read(marked) == read(plain)
