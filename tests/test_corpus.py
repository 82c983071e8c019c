import json
import random
from datetime import date, datetime, timedelta, timezone

import pytest

from crisismon import (ParseReport, compute_corpus_stats, filter_analyzable,
                       parse_corpus, preprocess, split_hashtag, tokenize_tweet)
from crisismon import corpus
from crisismon.corpus import MalformedLine
from crisismon.errors import FormatError

from oracles import naive_stats


def _line(i, kind="original", text="hola mundo", user="u1",
          created="2020-03-05T12:00:00Z"):
    return json.dumps(
        {"id": f"t{i}", "created_at": created, "text": text, "kind": kind,
         "user_id": user}
    )


class TestParseCorpus:
    def test_empty_stream(self):
        report = ParseReport()
        assert list(parse_corpus([], report=report)) == []
        assert report.skipped == 0

    def test_three_lines_in_order(self):
        lines = [_line(i) for i in range(3)]
        tweets = list(parse_corpus(lines))
        assert [t.id for t in tweets] == ["t0", "t1", "t2"]

    def test_lenient_skips_truncated_line(self):
        lines = [_line(0), '{"id": "t1", "created_at"', _line(2)]
        report = ParseReport()
        tweets = list(parse_corpus(lines, report=report))
        assert [t.id for t in tweets] == ["t0", "t2"]
        assert report.skipped == 1
        assert report.examples[0][0] == 2

    def test_strict_aborts_with_line_number(self):
        lines = [_line(0), "not json"]
        with pytest.raises(FormatError, match="line 2"):
            list(parse_corpus(lines, strict=True))

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
        assert list(parse_corpus([bad], report=report)) == []
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
        assert [t.id for t in parse_corpus([_line(1), line, _line(2)], report=report)] == [
            "t1", "t2"]
        ((lineno, got, _),) = report.examples
        assert lineno == 2 and got.startswith(reason)
        with pytest.raises(MalformedLine, match=f"^line 2: {reason}") as exc:
            list(parse_corpus([_line(1), line], strict=True))
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
            list(parse_corpus([line], report=report))
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
        assert list(parse_corpus([json.dumps(obj)], report=report)) == []
        assert report.examples == [(1, wanted, "")]

    def test_integer_ids_are_kept_as_their_decimal_string(self):
        obj = json.loads(_line(0))
        obj.update(id=0, user_id=12)
        (tweet,) = parse_corpus([json.dumps(obj)])
        assert (tweet.id, tweet.user_id) == ("0", "12")

    def test_date_bucketing_uses_utc_minus_3_by_default(self):
        # 01:30 UTC is still the previous day in Argentina.
        line = _line(0, created="2020-03-05T01:30:00Z")
        (tweet,) = parse_corpus([line])
        assert tweet.date == date(2020, 3, 4)
        (tweet,) = parse_corpus([line], tz_offset_hours=0)
        assert tweet.date == date(2020, 3, 5)

    def test_accepts_bytes_lines(self):
        (tweet,) = parse_corpus([_line(0).encode("utf-8")])
        assert tweet.id == "t0"

    def test_has_hashtag_derived_from_text(self):
        (a,) = parse_corpus([_line(0, text="sin etiqueta")])
        (b,) = parse_corpus([_line(1, text="con #CuarentenaTotal")])
        assert not a.has_hashtag
        assert b.has_hashtag


class TestFilterAnalyzable:
    def test_original_is_analyzable(self):
        (t,) = parse_corpus([_line(0, kind="original")])
        assert filter_analyzable(t) is True

    def test_retweet_is_not(self):
        (t,) = parse_corpus([_line(0, kind="retweet")])
        assert filter_analyzable(t) is False

    def test_reply_is_analyzable(self):
        (t,) = parse_corpus([_line(0, kind="reply")])
        assert filter_analyzable(t) is True

    def test_partitions_a_corpus(self):
        rng = random.Random(5)
        lines = [
            _line(i, kind=rng.choice(["original", "reply", "retweet"]))
            for i in range(500)
        ]
        tweets = list(parse_corpus(lines))
        kept = sum(1 for t in tweets if filter_analyzable(t))
        retweets = sum(1 for t in tweets if t.kind == "retweet")
        assert kept + retweets == len(tweets)


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
    def test_empty_stream(self):
        stats = compute_corpus_stats([])
        assert stats.total == 0
        assert stats.user_summary() is None
        assert stats.to_json_dict()["per_user"] is None

    def test_small_arithmetic(self):
        lines = [_line(0, user="u1"), _line(1, user="u1"), _line(2, user="u2")]
        stats = compute_corpus_stats(parse_corpus(lines))
        summary = stats.user_summary()
        assert summary == {"min": 1, "avg": 1.5, "max": 2, "median": 1}

    def test_invariant_total_is_kind_sum(self):
        rng = random.Random(3)
        lines = [
            _line(i, kind=rng.choice(["original", "reply", "retweet"]))
            for i in range(300)
        ]
        stats = compute_corpus_stats(parse_corpus(lines))
        assert stats.total == stats.n_original + stats.n_retweet + stats.n_reply

    def test_matches_naive_counting_script(self):
        records = _synthetic_records(10_000, seed=20)
        lines = [json.dumps(r) for r in records]
        stats = compute_corpus_stats(parse_corpus(lines))
        assert stats.to_json_dict() == naive_stats(records)


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


def test_tokenize_tweet_keeps_date_and_id():
    (t,) = parse_corpus([_line(7, text="Hola #Mundo2020")])
    doc = tokenize_tweet(t)
    assert doc.tweet_id == "t7"
    assert doc.date == t.date
    assert doc.tokens == ("hola", "mundo", "2020")


def test_records_are_immutable():
    (t,) = parse_corpus([_line(7)])
    doc = tokenize_tweet(t)
    with pytest.raises(AttributeError):
        t.text = "otro texto"
    with pytest.raises(AttributeError):
        doc.tokens = ()
