import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import crisismon
from crisismon import (CategorySet, EmbeddingTable, associate_categories,
                       expand_lexicon, knn, load_embeddings, make_lexicon)
from crisismon.errors import FormatError
from crisismon.expansion import _parse

from oracles import brute_knn


def _write_table(tmp_path, rows, header=None, name="emb.txt"):
    if header is None:
        header = f"{len(rows)} {len(rows[0]) - 1}"
    path = tmp_path / name
    lines = [header] + [" ".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_small_table(self, tmp_path):
        path = _write_table(tmp_path, [["uno", 1, 0, 0], ["dos", 0, 1, 0]])
        table = load_embeddings(path)
        assert "uno" in table and "dos" in table
        assert table.dim == 3
        # A unit row: normalizing leaves it as parsed.
        assert table._units[table._index["dos"]].tolist() == [0.0, 1.0, 0.0]

    def test_arity_mismatch_reports_line(self, tmp_path):
        path = _write_table(tmp_path, [["uno", 1, 0, 0], ["dos", 0, 1]], header="2 3")
        with pytest.raises(FormatError, match="line 3"):
            load_embeddings(path)

    def test_zero_vector_loaded_but_unusable(self, tmp_path):
        path = _write_table(tmp_path, [["uno", 1, 0], ["cero", 0, 0]])
        table = load_embeddings(path)
        assert "cero" in table
        assert not table.usable("cero")
        # never returned as a neighbor, and rejected as a query
        assert all(t != "cero" for t, _ in knn(table, "uno", 5))
        with pytest.raises(ValueError):
            knn(table, "cero", 1)

    def test_duplicate_token_last_wins(self, tmp_path):
        path = _write_table(
            tmp_path, [["uno", 1, 0], ["uno", 0, 1], ["dos", 1, 1]], header="3 2"
        )
        table = load_embeddings(path)
        assert table._units[table._index["uno"]].tolist() == [0.0, 1.0]

    def test_row_count_must_match_header(self, tmp_path):
        path = _write_table(tmp_path, [["uno", 1, 0]], header="2 2")
        with pytest.raises(FormatError, match="expected 2 rows"):
            load_embeddings(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        path = _write_table(tmp_path, [["uno", 1, 0], ["dos", 0, component], ["tres", 1, 1]])
        with pytest.raises(FormatError, match="line 3: non-finite component"):
            load_embeddings(path)

    def test_components_parse_as_python_floats(self, tmp_path):
        texts = ["1_0", "4.9e-324", "1e-320", "-0.0", "1e-400", "٣.٥", "１２",
                 "0.1000000000000000055511151231257827"]
        path = _write_table(tmp_path, [["uno", *texts]])
        got = _parse(path)[1][0].tolist()
        assert [repr(x) for x in got] == [repr(float(t)) for t in texts]

    def test_a_pipe_grows_the_matrix_as_rows_come(self, tmp_path):
        # A pipe has no size to bound the rows, so the matrix starts at one row
        # and doubles as the 20,000 rows of 3 come.
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes")
        fifo = tmp_path / "emb.fifo"
        os.mkfifo(fifo)
        text = "20000 3\n" + "".join(f"w{i} {i} {i % 7} -1\n" for i in range(20_000))
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        tokens, matrix = _parse(fifo)
        writer.join()
        assert tokens == [f"w{i}" for i in range(20_000)]
        assert matrix.shape == (20_000, 3)
        assert matrix[:, 0].tolist() == list(range(20_000))
        assert matrix[:, 1].tolist() == [i % 7 for i in range(20_000)]
        assert (matrix[:, 2] == -1).all()


def _rows(n, dim, faults=()):
    """A "V D" table of n rows; ``faults`` maps a line number to its text."""
    faults = dict(faults)
    lines = [f"{n} {dim}"]
    for lineno in range(2, n + 2):
        lines.append(faults.get(lineno, f"w{lineno} " + " ".join(["0.25"] * dim)))
    return "\n".join(lines) + "\n"


# Tables with more than one fault, and the one each reports. A "chunk" is a
# block of ``_CHUNK`` components, the unit of the non-finite check that runs
# after the last line: the 100-wide tables span several, and their faults lie
# beyond the first. A blank line shifts the rows against the lines.
WIDE_ROW = "x " + " ".join(["0.5"] * 100)
ERROR_ORDER = {
    "non-numeric beats a later arity error":
        ("3 2\nuno 1 0\ndos 1 x\ntres 1\n", "line 3: non-numeric component"),
    "row count beats a non-finite component":
        ("3 2\nuno 1 0\ndos nan 0\n", "expected 3 rows, file has 2"),
    "more rows beats an earlier non-finite component":
        ("1 2\nuno inf 0\ndos 1 0\n", "line 3: more rows than the header's 1"),
    "arity beats an earlier non-finite component":
        ("2 2\nuno nan 0\ndos 1\n", "line 3: expected 3 fields, got 2"),
    "non-numeric beats an earlier non-finite component":
        ("2 2\nuno nan 0\ndos x 0\n", "line 3: non-numeric component"),
    "the first of two non-numeric rows in one chunk":
        ("3 2\nuno 1 0\ndos 1 y\ntres z 0\n", "line 3: non-numeric component"),
    "non-numeric beyond the first chunk":
        (_rows(600, 100, {450: WIDE_ROW.replace("0.5", "q", 1), 451: "x 1"}),
         "line 450: non-numeric component"),
    "non-numeric before an arity error in a later chunk":
        (_rows(600, 100, {380: WIDE_ROW.replace("0.5", "q", 1), 390: "x 1"}),
         "line 380: non-numeric component"),
    "non-numeric before an extra row in a later chunk":
        (_rows(500, 100, {480: WIDE_ROW.replace("0.5", "q", 1)}) + WIDE_ROW + "\n",
         "line 480: non-numeric component"),
    "an arity error beyond the first chunk":
        (_rows(600, 100, {420: "x 1"}), "line 420: expected 101 fields, got 2"),
    "the first non-finite row beyond the first chunk":
        (_rows(600, 100, {400: WIDE_ROW.replace("0.5", "1e309"), 530: "y inf" + " 0" * 99}),
         "line 400: non-finite component"),
    "row count beats a non-finite row beyond the first chunk":
        (_rows(600, 100, {400: WIDE_ROW.replace("0.5", "nan")}).replace("600 100", "601 100", 1),
         "expected 601 rows, file has 600"),
    "a non-finite row after a blank line":
        ("2 1\na 1\n\nb inf\n", "line 4: non-finite component"),
    "a non-finite row beyond the first chunk after blank lines":
        (_rows(602, 100, {5: "", 6: " ", 400: WIDE_ROW.replace("0.5", "-inf")})
         .replace("602 100", "600 100", 1), "line 400: non-finite component"),
}


class TestErrorOrder:
    @pytest.mark.parametrize("text,message", ERROR_ORDER.values(), ids=ERROR_ORDER.keys())
    def test_the_first_fault_is_reported(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: {message}"

    def test_non_numeric_beats_a_later_undecodable_byte(self, tmp_path):
        # The bad byte lies well past the first block the text reader
        # decodes, so line 3 fails its conversion before the byte is read.
        path = tmp_path / "emb.txt"
        path.write_bytes(_rows(300, 20, {3: "dos x" + " 0" * 19}).encode() + b"\xff\n")
        with pytest.raises(FormatError, match=r"line 3: non-numeric component$"):
            load_embeddings(path)

    def test_duplicates_are_reported_up_to_the_faulty_line(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        path.write_text("5 2\nuno 1 0\nuno 0 1\ndos x 0\ndos 1 1\nuno 1 1\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="line 4: non-numeric component"):
            load_embeddings(path)
        assert capsys.readouterr().err == (
            f"warning: {path}: line 3: duplicate token 'uno', last row wins\n")


class TestMemory:
    def test_loading_holds_about_one_matrix(self, tmp_path):
        pytest.importorskip("resource")
        rows, dim = 10_000, 100
        rng = np.random.default_rng(5)
        path = tmp_path / "emb.txt"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{rows} {dim}\n")
            for i, row in enumerate(rng.normal(size=(rows, dim)).round(4).tolist()):
                fh.write(f"w{i} " + " ".join(map(str, row)) + "\n")
        # NumPy is imported before the first reading: the loader imports it
        # on its first call, and the import is not the loader's memory.
        code = (
            "import resource, sys\n"
            "import numpy\n"
            "from crisismon.expansion import load_embeddings\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "load_embeddings(sys.argv[1])\n"
            "print(peak() - before)\n"
        )
        src = str(Path(crisismon.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        # ru_maxrss is a high-water mark, and Linux carries a parent's peak into
        # a child's across fork and exec. So the load runs in a fresh interpreter
        # started by a small one, whose peak lies below NumPy's import.
        launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        out = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code,
                              str(path)], env=env, capture_output=True, text=True,
                             check=True).stdout
        # Linux counts ru_maxrss in KiB, macOS in bytes.
        grown = int(out) * (1 if sys.platform == "darwin" else 1024)
        assert grown < 2 * rows * dim * 8


class TestKnn:
    def test_matches_exhaustive_scan_small(self, tmp_path):
        path = _write_table(
            tmp_path,
            [["a", 1, 0], ["b", 0.9, 0.1], ["c", 0, 1], ["d", -1, 0]],
        )
        table = load_embeddings(path)
        got = knn(table, "a", 2)
        expect = brute_knn(["a", "b", "c", "d"], _parse(path)[1], 0, 2)
        assert [t for t, _ in got] == [t for t, _ in expect]

    def test_k_at_least_vocab_returns_all_sorted(self, tmp_path):
        path = _write_table(tmp_path, [["a", 1, 0], ["b", 0, 1], ["c", 1, 1]])
        table = load_embeddings(path)
        got = knn(table, "a", 99)
        assert len(got) == 2
        assert got[0][1] >= got[1][1]

    def test_oov_query(self, tmp_path):
        path = _write_table(tmp_path, [["a", 1, 0], ["b", 0, 1]])
        table = load_embeddings(path)
        with pytest.raises(ValueError, match="'zzz' is not in the vocabulary"):
            knn(table, "zzz", 1)

    @pytest.mark.parametrize("tokens, matrix, says", [
        (["a", "b"], [[1.0, 0.0]], "matrix shape does not match token list"),
        (["a"], [1.0, 0.0], "matrix shape does not match token list"),
        ([], np.zeros((0, 2)), "empty vocabulary"),
    ], ids=["a-row-short", "a-flat-matrix", "no-tokens"])
    def test_a_table_needs_a_row_per_token_and_a_token(self, tokens, matrix, says):
        with pytest.raises(ValueError, match=f"^{says}$"):
            EmbeddingTable(tokens, matrix)

    def test_tie_break_is_lexicographic(self):
        table = EmbeddingTable(
            ["query", "zeta", "alfa", "beta"],
            np.array([[1.0, 0], [1, 0], [1, 0], [0, 1]]),
        )
        got = knn(table, "query", 3)
        assert [t for t, _ in got] == ["alfa", "zeta", "beta"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_exact_ties_at_the_kth_place_match_brute_force(self, k):
        # Duplicate vectors tie exactly; shuffled names make the token order
        # differ from the row order, so only a band holding the whole tie at
        # the k-th place sorts as the brute-force scan does.
        rng = np.random.default_rng(31)
        base = rng.normal(size=(4, 6))
        rows = [0, 1, 1, 1, 2, 2, 1, 3, 2, 0, 1]
        tokens = [f"t{i:02d}" for i in rng.permutation(len(rows))]
        matrix = base[rows]
        table = EmbeddingTable(tokens, matrix)
        for qi in range(len(tokens)):
            got = knn(table, tokens[qi], k)
            expect = brute_knn(tokens, matrix, qi, k)
            assert [t for t, _ in got] == [t for t, _ in expect]

    def test_nan_similarity_at_the_kth_place_keeps_the_k_neighbours(self):
        # An inf component makes the row's unit vector, and so every
        # similarity involving it, NaN; NaN sorts after every number and
        # NaN ties break by token.
        with np.errstate(invalid="ignore"):
            table = EmbeddingTable(
                ["a", "b", "c", "d", "e"],
                np.array([[1.0, 0], [0.9, 0.1], [0, 1], [-1, 0], [np.inf, 0]]),
            )
            all_nan = knn(table, "e", 2)
            last_nan = knn(table, "a", 4)
        assert [t for t, _ in all_nan] == ["a", "b"]
        assert all(np.isnan(s) for _, s in all_nan)
        assert [t for t, _ in last_nan] == ["b", "c", "d", "e"]
        assert np.isnan(last_nan[-1][1])

    def test_huge_and_tiny_rows_keep_their_direction(self):
        # Their plain norms overflow to inf and underflow to 0; scaled, both
        # are usable and as similar to the row they multiply as it is to itself.
        base = np.array([1.0, 0.1])
        table = EmbeddingTable(["base", "huge", "other", "tiny"],
                               np.array([base, 1e200 * base, [0.0, 1.0], 1e-170 * base]))
        assert table.usable("huge") and table.usable("tiny")
        got = dict(knn(table, "base", 3))
        assert got["huge"] == pytest.approx(1.0, abs=1e-12)
        assert got["tiny"] == pytest.approx(1.0, abs=1e-12)
        got = dict(knn(table, "tiny", 2))
        assert got["huge"] == pytest.approx(1.0, abs=1e-12)

    def test_random_tables_match_brute_force_all_k(self):
        rng = np.random.default_rng(17)
        tokens = [f"w{i:03d}" for i in range(60)]
        matrix = rng.normal(size=(60, 12))
        table = EmbeddingTable(tokens, matrix)
        for qi in rng.integers(0, 60, size=12):
            for k in (1, 3, 10, 59, 60):
                got = [t for t, _ in knn(table, tokens[qi], k)]
                expect = [t for t, _ in brute_knn(tokens, matrix, int(qi), k)]
                assert got == expect


class TestExpandLexicon:
    def test_seed_union_neighbors(self):
        table = EmbeddingTable(
            ["a", "b", "c", "d"],
            np.array([[1.0, 0], [0.99, 0.01], [0.98, 0.02], [-1, 0]]),
        )
        seed = make_lexicon("s", ["a"])
        out = expand_lexicon(seed, table, k=2)
        assert out.terms == frozenset({("a",), ("b",), ("c",)})

    def test_phrases_pass_through_unexpanded(self):
        table = EmbeddingTable(["panic", "attack"], np.eye(2))
        seed = make_lexicon("s", ["panic attack"])
        out = expand_lexicon(seed, table)
        assert out.terms == seed.terms

    def test_oov_seed_kept_but_not_expanded(self):
        table = EmbeddingTable(["x", "y"], np.array([[1.0, 0], [0, 1.0]]))
        seed = make_lexicon("s", ["fuera"])
        out = expand_lexicon(seed, table)
        assert out.terms == frozenset({("fuera",)})

    def test_zero_norm_seed_kept_but_not_expanded(self):
        table = EmbeddingTable(["a", "b"], np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = expand_lexicon(make_lexicon("s", ["a"]), table, k=1)
        assert out.terms == frozenset({("a",)})

    def test_k_below_one_raises(self):
        table = EmbeddingTable(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="k must be >= 1"):
            expand_lexicon(make_lexicon("s", ["a"]), table, k=0)

    def test_matches_brute_force_expander(self):
        rng = np.random.default_rng(23)
        # Letter-only names: the normalizer would split digit-bearing seeds
        # into phrases, which by contract are not expanded.
        import itertools

        tokens = ["".join(p) for p in itertools.product("abcde", repeat=3)][:100]
        matrix = rng.normal(size=(100, 16))
        table = EmbeddingTable(tokens, matrix)
        seed_tokens = list(rng.choice(tokens, size=20, replace=False))
        seed = make_lexicon("s", seed_tokens + ["fuera del vocabulario"])
        out = expand_lexicon(seed, table, k=10)

        expected = set(seed.terms)
        for tok in seed_tokens:
            qi = tokens.index(tok)
            expected.update((t,) for t, _ in brute_knn(tokens, matrix, qi, 10))
        assert out.terms == frozenset(expected)

    def test_superset_and_size_bound(self):
        rng = np.random.default_rng(29)
        tokens = ["".join(p) for p in __import__("itertools").product("pqrs", repeat=3)][:40]
        table = EmbeddingTable(tokens, rng.normal(size=(40, 8)))
        seed = make_lexicon("s", [tokens[1], tokens[2], "frase larga aqui", "oov"])
        k = 5
        out = expand_lexicon(seed, table, k)
        assert seed.terms <= out.terms
        in_vocab_singles = 2
        assert len(out.terms) <= len(seed.terms) + k * in_vocab_singles

    def test_a_shared_neighbors_dict_queries_each_seed_and_k_once(self, monkeypatch):
        import itertools

        from crisismon import expansion

        rng = np.random.default_rng(31)
        tokens = ["".join(p) for p in itertools.product("fghij", repeat=2)]
        table = EmbeddingTable(tokens, rng.normal(size=(25, 6)))
        seeds = [make_lexicon("x", tokens[:4]), make_lexicon("y", tokens[2:6])]
        alone = [expand_lexicon(seed, table, 3) for seed in seeds]
        queries = []
        real = expansion.knn
        monkeypatch.setattr(expansion, "knn",
                            lambda t, q, k: queries.append((q, k)) or real(t, q, k))
        neighbors = {}
        assert [expand_lexicon(seed, table, 3, neighbors) for seed in seeds] == alone
        assert sorted(queries) == [(t, 3) for t in sorted(tokens[:6])]
        assert expand_lexicon(seeds[0], table, 4, neighbors) == expand_lexicon(seeds[0], table, 4)
        assert len(queries) == 6 + 4 + 4


class TestAssociateCategories:
    def _cats(self, **kwargs):
        return CategorySet(
            name="c",
            categories={k: make_lexicon(k, v) for k, v in kwargs.items()},
        )

    def test_counts_and_ranking(self):
        expanded = make_lexicon("s", ["a", "b", "c"])
        cats = self._cats(C1=["a", "b"], C2=["b"], C3=["x"])
        mapping = associate_categories(expanded, cats, m=2)
        assert mapping.ranked == (("C1", 2), ("C2", 1))

    def test_empty_expanded_lexicon(self):
        # Construct directly; loaders refuse empty lexicons by contract.
        from crisismon import Lexicon

        empty = Lexicon(name="s", terms=frozenset())
        cats = self._cats(C1=["a"])
        mapping = associate_categories(empty, cats)
        assert mapping.ranked == ()

    def test_ties_lexicographic(self):
        expanded = make_lexicon("s", ["a", "b"])
        cats = self._cats(C2=["b"], C1=["a"])
        mapping = associate_categories(expanded, cats)
        assert mapping.ranked == (("C1", 1), ("C2", 1))

    def test_zero_count_categories_dropped(self):
        expanded = make_lexicon("s", ["a"])
        cats = self._cats(C1=["a"], C2=["zzz"])
        mapping = associate_categories(expanded, cats)
        assert mapping.ranked == (("C1", 1),)

    def test_invariant_under_term_order(self):
        rng = random.Random(4)
        words = [f"w{i}" for i in range(30)]
        for _ in range(10):
            sample = rng.sample(words, 12)
            shuffled = sample[:]
            rng.shuffle(shuffled)
            cats_a = self._cats(C1=sample[:8], C2=sample[4:])
            cats_b = self._cats(C1=list(reversed(sample[:8])), C2=list(reversed(sample[4:])))
            lex_a = make_lexicon("s", sample)
            lex_b = make_lexicon("s", shuffled)
            m1 = associate_categories(lex_a, cats_a)
            m2 = associate_categories(lex_b, cats_b)
            assert m1.ranked == m2.ranked

    def test_multiword_terms_do_not_count(self):
        expanded = make_lexicon("s", ["a", "panic attack"])
        cats = self._cats(C1=["a", "panic attack"])
        mapping = associate_categories(expanded, cats)
        assert mapping.ranked == (("C1", 1),)
