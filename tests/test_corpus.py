import json
import random
from datetime import date, datetime, timedelta, timezone

import pytest

from crisismon import (CategorySet, Corpus, ParseReport, aggregate_daily, build_matcher,
                       corpus_stats, make_lexicon, preprocess, split_hashtag)
from crisismon import corpus
from crisismon.corpus import MalformedLine, records
from crisismon.errors import FormatError

from oracles import naive_records, naive_stats


def _line(i, kind="original", text="hola mundo", user="u1",
          created="2020-03-05T12:00:00Z"):
    return json.dumps(
        {"id": f"t{i}", "created_at": created, "text": text, "kind": kind,
         "user_id": user}
    )


def _ids(lines, **kwargs):
    return [obj["id"] for obj, _, _ in records(lines, **kwargs)]


def _write(tmp_path, lines) -> Corpus:
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return Corpus((str(path),))


def _stats(tmp_path, lines):
    return corpus_stats(_write(tmp_path, lines), 1, ParseReport())


class TestParseCorpus:
    """Corpus lines through :func:`records`, the one loop that parses them."""

    def test_empty_stream(self):
        report = ParseReport()
        assert list(records([], report=report)) == []
        assert report.skipped == 0

    def test_three_lines_in_order(self):
        lines = [_line(i) for i in range(3)]
        assert _ids(lines) == ["t0", "t1", "t2"]

    def test_lenient_skips_truncated_line(self):
        lines = [_line(0), '{"id": "t1", "created_at"', _line(2)]
        report = ParseReport()
        assert _ids(lines, report=report) == ["t0", "t2"]
        assert report.skipped == 1
        assert report.examples[0][0] == 2

    def test_strict_aborts_with_line_number(self):
        lines = [_line(0), "not json"]
        with pytest.raises(FormatError, match="line 2"):
            list(records(lines, strict=True))

    @pytest.mark.parametrize(
        "bad",
        [
            '{"id": "", "created_at": "2020-03-05T12:00:00Z", "text": "x", "kind": "original", "user_id": "u"}',
            '{"id": "a", "created_at": "2020-03-05T12:00:00Z", "text": "x", "kind": "quote", "user_id": "u"}',
            '{"id": "a", "text": "x", "kind": "original", "user_id": "u"}',
            '{"id": "a", "created_at": "yesterday", "text": "x", "kind": "original", "user_id": "u"}',
            '[1, 2]',
        ],
    )
    def test_malformed_variants_are_skipped(self, bad):
        report = ParseReport()
        assert list(records([bad], report=report)) == []
        assert report.skipped == 1

    @pytest.mark.parametrize("line, reason, max_depth", [
        (_line(0, created="0001-01-01T01:00:00Z"), "date value out of range", None),
        ("[" * 100_000, "nested more than 500 deep", None),
        # Past the cap, json's own recursion limit makes the line malformed.
        ("[" * 100_000, "maximum recursion depth exceeded", 10**9),
    ])
    def test_hostile_lines_are_malformed_not_crashes(self, monkeypatch, line, reason,
                                                     max_depth):
        if max_depth:
            monkeypatch.setattr(corpus, "MAX_DEPTH", max_depth)
        report = ParseReport()
        assert _ids([_line(1), line, _line(2)], report=report) == ["t1", "t2"]
        ((lineno, got, _),) = report.examples
        assert lineno == 2 and got.startswith(reason)
        with pytest.raises(MalformedLine, match=f"^line 2: {reason}") as exc:
            list(records([_line(1), line], strict=True))
        assert (exc.value.lineno, exc.value.source) == (2, "")

    def test_nesting_is_capped_whatever_the_stack(self):
        def nested(depth):
            obj = json.loads(_line(0))
            obj["lang"] = "[" * depth + "]" * depth
            return json.dumps(obj).replace('"[', "[").replace(']"', "]")

        def parse_at(stack, line):
            if stack:
                return parse_at(stack - 1, line)
            report = ParseReport()
            list(records([line], report=report))
            return report.parsed, [reason for _, reason, _ in report.examples]

        for stack in (0, 300):
            assert parse_at(stack, nested(499)) == (1, [])  # with the object, 500
            assert parse_at(stack, nested(500)) == (0, ["nested more than 500 deep"])
        # Brackets in strings do not nest.
        assert parse_at(0, _line(0, text="[{" * 1000)) == (1, [])

    @pytest.mark.parametrize("key, value, wanted", [
        ("text", ["miedo"], "'text' must be a string, not an array"),
        ("text", None, "'text' must be a string, not null"),
        ("text", 5, "'text' must be a string, not an integer"),
        ("created_at", 1583409600, "'created_at' must be a string, not an integer"),
        ("id", None, "'id' must be a string or an integer, not null"),
        ("id", 1.5, "'id' must be a string or an integer, not a float"),
        ("id", True, "'id' must be a string or an integer, not a boolean"),
        ("user_id", None, "'user_id' must be a string or an integer, not null"),
        ("user_id", {"id": 1}, "'user_id' must be a string or an integer, not an object"),
    ])
    def test_a_field_of_the_wrong_json_type_is_malformed(self, key, value, wanted):
        obj = json.loads(_line(0, text="miedo"))
        obj[key] = value
        report = ParseReport()
        assert list(records([json.dumps(obj)], report=report)) == []
        assert report.examples == [(1, wanted, "")]

    @pytest.mark.parametrize("changes, dropped, wanted", [
        ({"id": 1.5}, "user_id", "'id' must be a string or an integer, not a float"),
        ({"id": None, "text": 5}, None, "'id' must be a string or an integer, not null"),
        ({"created_at": 5}, "kind", "'created_at' must be a string, not an integer"),
        ({"text": []}, "id", "missing key 'id'"),
        ({"kind": [], "user_id": True}, None,
         "'user_id' must be a string or an integer, not a boolean"),
        ({"kind": []}, None, "bad kind []"),
        ({"kind": {}}, None, "bad kind {}"),
        ({"id": "", "kind": "quote"}, None, "empty id"),
    ])
    def test_a_line_with_several_faults_reports_the_first(self, changes, dropped, wanted):
        """Fields in the order id, created_at, text, kind, user_id; then the
        empty id; then the kind."""
        obj = json.loads(_line(0))
        obj.update(changes)
        obj.pop(dropped, None)
        report = ParseReport()
        assert list(records([json.dumps(obj)], report=report)) == []
        assert report.examples == [(1, wanted, "")]

    def test_integer_ids_are_kept_as_their_decimal_string(self, tmp_path):
        obj = json.loads(_line(0))
        obj.update(id=0, user_id=12)
        ((got, _, _),) = records([json.dumps(obj)])
        assert (got["id"], got["user_id"]) == (0, 12)
        assert list(_stats(tmp_path, [json.dumps(obj)]).per_user) == ["12"]

    def test_date_bucketing_uses_utc_minus_3_by_default(self):
        # 01:30 UTC is still the previous day in Argentina.
        line = _line(0, created="2020-03-05T01:30:00Z")
        ((_, _, day),) = records([line])
        assert day == date(2020, 3, 4)
        ((_, _, day),) = records([line], tz_offset_hours=0)
        assert day == date(2020, 3, 5)

    @pytest.mark.parametrize("created, tz, day", [
        ("9999-12-31T23:00:00-03:00", -3, date(9999, 12, 31)),  # past 9999 in UTC
        ("0001-01-01T01:00:00+03:00", 3, date(1, 1, 1)),  # before year 1 in UTC
    ])
    def test_a_day_at_the_year_ends_is_its_day_at_the_offset(self, tmp_path, created, tz, day):
        line = _line(0, created=created)
        ((_, _, got),) = records([line], tz_offset_hours=tz)
        ((_, _, naive),), _ = naive_records([line], tz_hours=tz)
        assert got == naive == day
        folded = corpus_stats(_write(tmp_path, [line])._replace(tz_offset_hours=tz), 1,
                              ParseReport())
        assert folded.per_day == {day: 1}

    @pytest.mark.parametrize("created", [
        "2020-03-05T03:00:00z",  # lowercase z: UTC
        "2020-03-05T02:59:59",  # no offset: UTC
        "2020-03-05T02:45:00+05:30",
        "2020-03-05T02:45:00-00:30",
        "2020-03-05T02:59:45+00:00:30",
    ])
    def test_a_day_is_the_oracles_at_any_offset(self, tmp_path, created):
        line = _line(0, created=created)
        ((_, _, day),) = records([line])
        ((_, _, naive),), _ = naive_records([line])
        assert day == naive
        assert _stats(tmp_path, [line]).per_day == {day: 1}

    def test_one_pass_over_many_offsets_gives_each_line_its_day(self, tmp_path):
        stamps = ["2020-03-05T02:45:00+05:30", "2020-03-05T02:45:00-00:30", "2020-03-05T01:00:00",
                  "2020-03-05T02:45:00+05:30", "2020-03-05T03:00:00z", "2020-03-05T02:45:00-00:30"]
        lines = [_line(i, created=created) for i, created in enumerate(stamps)]
        days = [day for _, _, day in records(lines)]
        naive, _ = naive_records(lines)
        assert days == [day for _, _, day in naive]
        assert len(set(days)) == 2
        assert _stats(tmp_path, lines).to_json_dict() == naive_stats([obj for obj, _, _ in naive])

    def test_accepts_bytes_lines(self):
        assert _ids([_line(0).encode("utf-8")]) == ["t0"]

    def test_has_hashtag_derived_from_text(self, tmp_path):
        for text, tagged in (("sin etiqueta", 0), ("con #CuarentenaTotal", 1), ("## no", 0)):
            assert _stats(tmp_path, [_line(0, text=text)]).n_with_hashtag == tagged


class TestFilterAnalyzable:
    """Originals and replies are analyzed; retweets carry no new text."""

    def _counted(self, tmp_path, lines):
        cats = CategorySet(name="t", categories={"hola": make_lexicon("hola", ["hola"])})
        report = ParseReport()
        agg = aggregate_daily(_write(tmp_path, lines), build_matcher(cats), date(2020, 3, 1),
                              date(2020, 3, 31), report=report)
        (matched,) = agg.matched
        assert matched == agg.totals
        return sum(agg.totals), report.parsed

    def test_original_is_analyzable(self, tmp_path):
        assert self._counted(tmp_path, [_line(0, kind="original")]) == (1, 1)

    def test_retweet_is_not(self, tmp_path):
        assert self._counted(tmp_path, [_line(0, kind="retweet")]) == (0, 1)

    def test_reply_is_analyzable(self, tmp_path):
        assert self._counted(tmp_path, [_line(0, kind="reply")]) == (1, 1)

    def test_partitions_a_corpus(self, tmp_path):
        rng = random.Random(5)
        lines = [
            _line(i, kind=rng.choice(["original", "reply", "retweet"]))
            for i in range(500)
        ]
        kept, parsed = self._counted(tmp_path, lines)
        retweets = sum(1 for _, kind, _ in records(lines) if kind == "retweet")
        assert 0 < retweets < parsed == 500
        assert kept + retweets == parsed


class TestPreprocess:
    def test_kitchen_sink_line(self):
        text = "Vamos!! #QuedateEnCasa http://t.co/x @juan"
        assert preprocess(text) == ["vamos", "quedate", "en", "casa"]

    def test_empty_text(self):
        assert preprocess("") == []

    def test_hyphen_and_ellipsis_separate(self):
        assert preprocess("covid-19 es grave…") == ["covid", "19", "es", "grave"]

    def test_urls_removed(self):
        assert preprocess("mira https://example.com/p?x=1#frag ya") == ["mira", "ya"]
        assert preprocess("mira www.ejemplo.com/pagina ya") == ["mira", "ya"]

    def test_mentions_removed_entirely(self):
        assert preprocess("gracias @PresidenciaAR por todo") == ["gracias", "por", "todo"]

    def test_diacritics_preserved(self):
        assert preprocess("MÁSCARA y baño") == ["máscara", "y", "baño"]

    def test_compatibility_normalization(self):
        # Ligatures and fullwidth forms fold to plain letters.
        assert preprocess("ﬁn ｈｏｌａ") == ["fin", "hola"]

    def test_no_forbidden_chars_in_tokens(self):
        rng = random.Random(11)
        alphabet = "aá bñ# @_ w. ! 19 #Hola http://x.co … QuedateEnCasa"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(40))
            for tok in preprocess(text):
                assert tok
                assert not any(c in tok for c in "#@ \t\n")

    def test_idempotent_on_rejoined_output(self):
        samples = [
            "Vamos!! #QuedateEnCasa http://t.co/x @juan",
            "covid-19 es grave… señal única año 2020",
            "#Covid_19 #quedateencasa ww.w @x ³²¹ ﬁesta",
            "RT @medio: «último momento» — *urgente*",
        ]
        for text in samples:
            once = preprocess(text)
            assert preprocess(" ".join(once)) == once

    def test_no_stemming(self):
        assert preprocess("enfermeras enfermera") == ["enfermeras", "enfermera"]


class TestSplitHashtag:
    @pytest.mark.parametrize(
        "tag, expect",
        [
            ("QuedateEnCasa", ["quedate", "en", "casa"]),
            ("covid19", ["covid", "19"]),
            ("argentina", ["argentina"]),
            ("COVID19", ["covid", "19"]),
            ("Cuarentena_Total", ["cuarentena", "total"]),
            ("quedateencasa", ["quedateencasa"]),  # no dictionary segmentation
            ("19marzo", ["19", "marzo"]),
        ],
    )
    def test_boundary_rules(self, tag, expect):
        assert split_hashtag(tag) == expect


class TestCorpusStats:
    def test_empty_stream(self, tmp_path):
        stats = _stats(tmp_path, [])
        assert stats.total == 0
        assert stats.user_summary() is None
        assert stats.to_json_dict()["per_user"] is None

    def test_small_arithmetic(self, tmp_path):
        lines = [_line(0, user="u1"), _line(1, user="u1"), _line(2, user="u2")]
        stats = _stats(tmp_path, lines)
        summary = stats.user_summary()
        assert summary == {"min": 1, "avg": 1.5, "max": 2, "median": 1}

    def test_invariant_total_is_kind_sum(self, tmp_path):
        rng = random.Random(3)
        lines = [
            _line(i, kind=rng.choice(["original", "reply", "retweet"]))
            for i in range(300)
        ]
        counts = _stats(tmp_path, lines).to_json_dict()
        assert counts["total"] == counts["original"] + counts["retweet"] + counts["reply"]

    def test_matches_naive_counting_script(self, tmp_path):
        tweets = _synthetic_records(10_000, seed=20)
        stats = _stats(tmp_path, [json.dumps(r) for r in tweets])
        assert stats.to_json_dict() == naive_stats(tweets)

    @pytest.mark.parametrize("ids, users", [
        ((5, "5"), 1),
        (("5", 5, 5), 1),
        ((5, "05"), 2),
        ((0, "0", "u0"), 2),
    ])
    def test_user_ids_are_compared_as_strings(self, tmp_path, ids, users):
        tweets = [json.loads(_line(i, user=user)) for i, user in enumerate(ids)]
        stats = _stats(tmp_path, [json.dumps(r) for r in tweets]).to_json_dict()
        assert stats["users"] == users
        assert stats == naive_stats(tweets)


def _synthetic_records(n, seed):
    rng = random.Random(seed)
    base = datetime(2020, 3, 1, tzinfo=timezone.utc)
    words = ["hola", "cuarentena", "salud", "casos", "#CuidarteEsCuidarnos", "test"]
    records = []
    for i in range(n):
        created = base + timedelta(minutes=rng.randrange(60 * 24 * 60))
        records.append(
            {
                "id": f"t{i}",
                "created_at": created.isoformat().replace("+00:00", "Z"),
                "text": " ".join(rng.choice(words) for _ in range(rng.randint(1, 12))),
                "kind": rng.choice(["original", "original", "reply", "retweet"]),
                "user_id": f"u{int(rng.paretovariate(1.2)) % 997}",
            }
        )
    return records


def test_a_record_keeps_its_day_and_text():
    ((obj, kind, day),) = records([_line(7, text="Hola #Mundo2020")])
    assert (obj["id"], kind, day) == ("t7", "original", date(2020, 3, 5))
    assert preprocess(obj["text"]) == ["hola", "mundo", "2020"]
