import json
import random

import pytest

from crisismon import (load_category_set, load_lexicon, load_manifest,
                       make_lexicon, save_lexicon)
from crisismon.errors import FormatError


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_case_fold_dedupes(self, tmp_path):
        path = _write(tmp_path, "x.json", {"name": "x", "terms": ["Miedo", "miedo"]})
        lex = load_lexicon(path)
        assert lex.terms == frozenset({("miedo",)})

    def test_phrase_term_has_two_tokens(self, tmp_path):
        path = _write(tmp_path, "x.json", {"name": "x", "terms": ["panic attack"]})
        lex = load_lexicon(path)
        assert lex.terms == frozenset({("panic", "attack")})

    def test_empty_terms_is_an_error(self, tmp_path):
        path = _write(tmp_path, "x.json", {"name": "x", "terms": []})
        with pytest.raises(ValueError, match="'x' has no usable terms"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_lexicon(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_lexicon(path)

    def test_wrong_shape(self, tmp_path):
        path = _write(tmp_path, "x.json", {"nombre": "x"})
        with pytest.raises(FormatError, match="expected an object with 'name' and 'terms'"):
            load_lexicon(path)

    def test_terms_share_the_tweet_normalizer(self, tmp_path):
        # Hyphens separate, accents survive, case folds.
        path = _write(tmp_path, "x.json", {"name": "x", "terms": ["Covid-19", "PÁNICO"]})
        lex = load_lexicon(path)
        assert lex.terms == frozenset({("covid", "19"), ("pánico",)})

    def test_punctuation_only_terms_are_dropped(self, tmp_path):
        path = _write(tmp_path, "x.json", {"name": "x", "terms": ["!!!", "ok"]})
        assert load_lexicon(path).terms == frozenset({("ok",)})


class TestRoundTripAndOrder:
    def test_serialize_load_round_trip(self, tmp_path):
        lex = make_lexicon("seed", ["miedo", "panic attack", "Salud"])
        out = tmp_path / "rt.json"
        save_lexicon(lex, out)
        assert load_lexicon(out) == lex

    def test_term_order_is_irrelevant(self, tmp_path):
        terms = ["uno", "dos tres", "cuatro", "Cinco"]
        rng = random.Random(2)
        lexes = set()
        for _ in range(5):
            rng.shuffle(terms)
            path = _write(tmp_path, "perm.json", {"name": "p", "terms": terms})
            lexes.add(load_lexicon(path))
        assert len(lexes) == 1


class TestLoadCategorySet:
    def test_two_disjoint_categories(self, tmp_path):
        path = _write(
            tmp_path,
            "c.json",
            {"name": "c", "categories": {"a": ["uno"], "b": ["dos"]}},
        )
        cats = load_category_set(path)
        assert len(cats.categories) == 2
        assert cats.categories["a"].terms == frozenset({("uno",)})

    def test_duplicate_category_key_is_an_error(self, tmp_path):
        path = tmp_path / "dupe.json"
        path.write_text(
            '{"name": "c", "categories": {"a": ["uno"], "a": ["dos"]}}',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="duplicate"):
            load_category_set(path)

    def test_loads_a_two_hundred_category_set(self, tmp_path):
        categories = {f"cat{i:03d}": [f"word{i}a", f"word{i}b"] for i in range(200)}
        path = _write(tmp_path, "big.json", {"name": "big", "categories": categories})
        cats = load_category_set(path)
        assert len(cats.categories) == 200


class TestManifest:
    def test_resolves_relative_paths(self, tmp_path):
        _write(tmp_path, "anx.json", {"name": "anxiety", "terms": ["worry"]})
        manifest = _write(tmp_path, "manifest.json", {"anxiety": "anx.json"})
        loaded = load_manifest(manifest)
        assert set(loaded) == {"anxiety"}
        assert loaded["anxiety"].terms == frozenset({("worry",)})

    def test_bad_value_type(self, tmp_path):
        manifest = _write(tmp_path, "manifest.json", {"anxiety": 3})
        with pytest.raises(FormatError, match="path for 'anxiety' must be a string"):
            load_manifest(manifest)

    @pytest.mark.parametrize("name", ["../../x", "a/b", "", ".", "..", "a\0b"])
    def test_a_construct_name_must_be_a_plain_file_name(self, tmp_path, name):
        _write(tmp_path, "anx.json", {"name": "anxiety", "terms": ["worry"]})
        manifest = _write(tmp_path, "manifest.json", {name: "anx.json"})
        with pytest.raises(FormatError) as info:
            load_manifest(manifest)
        assert str(info.value) == f"{manifest}: construct {name!r} is not a plain file name"
