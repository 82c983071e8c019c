import csv
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import pytest

from crisismon import cli
from crisismon.cli import RunConfig, main
from crisismon.reporting import annotate_peaks

from oracles import brute_knn, naive_stats
from synth import write_burst_workspace


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRunConfig:
    def test_defaults_match_the_operating_constants(self):
        cfg = RunConfig()
        assert cfg.k == 10
        assert cfg.m == 10
        assert cfg.window == 7
        assert cfg.sigma_mult == 1.0

    def test_default_lead_is_the_look_back_of_annotate_peaks(self):
        lead = inspect.signature(annotate_peaks).parameters["lead"].default
        assert RunConfig().lead == lead == 6

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"ventana": 7}')
        from crisismon.errors import FormatError

        with pytest.raises(FormatError):
            RunConfig.from_file(path)

    def test_reversed_range_rejected(self):
        cfg = RunConfig(date_from="2020-05-01", date_to="2020-03-01")
        with pytest.raises(ValueError):
            cfg.date_range()

    @pytest.mark.parametrize("key, value", [
        ("window", "7"), ("lead", "6"), ("date_from", 20200301), ("strict", "no"),
        ("corpus", "a.jsonl"), ("window", True),
    ])
    def test_wrongly_typed_value_exits_two_and_writes_nothing(
        self, tmp_path, capsys, key, value
    ):
        ws = write_burst_workspace(tmp_path, seed=28, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg[key] = value
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 2
        assert repr(key) in capsys.readouterr().err
        assert not ws["out"].exists()

    @pytest.mark.parametrize("key, value", [("sigma_mult", 2), ("markers", None),
                                            ("workers", None)])
    def test_int_for_a_float_and_null_where_allowed(self, tmp_path, key, value):
        ws = write_burst_workspace(tmp_path, seed=29, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({key: value, "date_to": "2020-03-10"})
        ws["config"].write_text(json.dumps(cfg))
        assert getattr(RunConfig.from_file(ws["config"]), key) == value
        assert run_cli("analyze", "--config", str(ws["config"])) == 0


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["stats", "--from", "2020-04-01"],
        ["expand", "--window", "7"],
        ["analyze", "--k", "3"],
        ["render", "--strict", "prevalence.csv"],
    ])
    def test_unread_flag_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "analyze"])
    def test_workers_below_one_fails_before_any_input_is_opened(self, tmp_path, capsys,
                                                                command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": [str(tmp_path / "missing.jsonl")],
            "categories": str(tmp_path / "missing-cats.json"),
            "date_from": "2020-03-01", "date_to": "2020-03-10",
            "out": str(tmp_path / "out"),
        }))
        assert run_cli(command, "--config", str(config), "--workers", "0") == 1
        assert "error: workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_is_accepted_by_analyze(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=30, n_days=10, per_day=10)
        assert run_cli("analyze", "--config", str(ws["config"]), "--workers", "1",
                       "--to", "2020-03-10") == 0

    @pytest.mark.parametrize("command, flags", [
        ("stats", {"--workers", "--out", "--strict"}),
        ("expand", {"--k", "--m", "--out"}),
        ("analyze", {"--from", "--to", "--window", "--sigma-mult", "--workers",
                     "--out", "--strict"}),
        ("render", {"--from", "--to", "--window", "--out"}),
    ])
    def test_help_lists_exactly_the_flags_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == flags | {"--config", "--help"}


class TestStats:
    def test_empty_corpus_exits_zero(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        code = run_cli("stats", "--out", str(tmp_path / "out"), str(corpus))
        assert code == 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["total"] == 0
        assert stats["per_user"] is None

    def test_bad_path_exits_two(self, tmp_path):
        code = run_cli("stats", "--out", str(tmp_path / "out"), str(tmp_path / "no.jsonl"))
        assert code == 2

    def test_fixture_matches_naive_counter(self, tmp_path):
        import random
        from datetime import datetime, timedelta, timezone

        rng = random.Random(77)
        base = datetime(2020, 3, 1, tzinfo=timezone.utc)
        records = [
            {
                "id": f"t{i}",
                "created_at": (base + timedelta(hours=rng.randrange(24 * 50))).isoformat(),
                "text": rng.choice(["hola", "tag #Covid19", "otro texto más"]),
                "kind": rng.choice(["original", "reply", "retweet"]),
                "user_id": f"u{rng.randrange(40)}",
            }
            for i in range(800)
        ]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(json.dumps(r) for r in records))
        code = run_cli("stats", "--out", str(tmp_path / "out"), str(corpus))
        assert code == 0
        got = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert got == naive_stats(records)

    def test_lenient_vs_strict(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        good = json.dumps(
            {"id": "a", "created_at": "2020-03-01T10:00:00Z", "text": "x",
             "kind": "original", "user_id": "u"}
        )
        corpus.write_text(good + "\n{broken\n")
        assert run_cli("stats", "--out", str(tmp_path / "o1"), str(corpus)) == 0
        assert "skipped 1 malformed" in capsys.readouterr().err
        code = run_cli("stats", "--strict", "--out", str(tmp_path / "o2"), str(corpus))
        assert code == 2

    def test_invalid_utf8_is_one_malformed_line(self, tmp_path, capsys):
        good = json.dumps(
            {"id": "a", "created_at": "2020-03-01T10:00:00Z", "text": "hola",
             "kind": "original", "user_id": "u"}
        ).encode("utf-8")
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(
            good + b"\n" + b'{"id": \xff}\n' + good.replace(b"hola", b"ho\xffla") + b"\n"
        )
        assert run_cli("stats", "--out", str(tmp_path / "o1"), str(corpus)) == 0
        assert "skipped 1 malformed line(s) of 3" in capsys.readouterr().err
        stats = json.loads((tmp_path / "o1" / "stats.json").read_text())
        assert stats["total"] == 2
        code = run_cli("stats", "--strict", "--out", str(tmp_path / "o2"), str(corpus))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_corpus_errors_name_the_file_and_its_line(self, tmp_path, capsys):
        good = json.dumps({"id": "a", "created_at": "2020-03-01T10:00:00Z", "text": "x",
                           "kind": "original", "user_id": "u"})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(good + "\n")
        b.write_text(good + "\n{broken\n")
        assert run_cli("stats", "--out", str(tmp_path / "o1"), str(a), str(b)) == 0
        err = capsys.readouterr().err
        assert "skipped 1 malformed line(s) of 3\n" in err
        assert f"  {b}: line 2: Expecting property name" in err
        assert run_cli("stats", "--strict", "--out", str(tmp_path / "o2"), str(a), str(b)) == 2
        assert capsys.readouterr().err.startswith(f"error: {b}: line 2: Expecting property")

    def test_a_missing_key_is_reported_bare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("mk.jsonl").write_text(json.dumps(
            {"id": "a", "created_at": "2020-03-01T10:00:00Z", "text": "x", "kind": "original"}
        ) + "\n")
        assert run_cli("stats", "--out", "o1", "mk.jsonl") == 0
        assert "  mk.jsonl: line 1: missing key 'user_id'\n" in capsys.readouterr().err
        assert run_cli("stats", "--strict", "--out", "o2", "mk.jsonl") == 2
        assert capsys.readouterr().err == "error: mk.jsonl: line 1: missing key 'user_id'\n"

    def test_a_stray_key_error_is_a_crash_not_exit_one(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_stats", broken)
        with pytest.raises(KeyError):
            run_cli("stats", "--out", str(tmp_path / "o"), str(tmp_path / "c.jsonl"))


def _split_workspace(tmp_path):
    """A burst workspace whose corpus is three files with malformed lines."""
    ws = write_burst_workspace(tmp_path, seed=31, n_days=20, per_day=30)
    lines = ws["corpus"].read_bytes().splitlines(keepends=True)
    paths = []
    for i in range(3):
        part = lines[i * 200:(i + 1) * 200]
        part[7 + i] = b'{"id": \xff}\n'
        part[50] = b"{broken\n"
        paths.append(tmp_path / f"part{i}.jsonl")
        paths[-1].write_bytes(b"".join(part) + b"\n")
    cfg = json.loads(ws["config"].read_text())
    cfg.update(corpus=[str(p) for p in paths], date_to="2020-03-15")
    ws["config"].write_text(json.dumps(cfg))
    return ws


@pytest.fixture()
def pool_on(monkeypatch):
    """Two CPUs forced and the size floor lifted, so the pool runs on any host."""
    from crisismon import corpus as corpus_mod

    monkeypatch.setattr(corpus_mod, "usable_cpus", lambda: 2)
    monkeypatch.setattr(corpus_mod, "MIN_POOL_BYTES", 1)


@pytest.mark.parametrize("command", ["stats", "analyze"])
def test_workers_one_and_two_write_the_same_bytes(tmp_path, capsys, pool_on, command):
    ws = _split_workspace(tmp_path)
    runs = []
    for workers in ("1", "2"):
        assert run_cli(command, "--config", str(ws["config"]), "--workers", workers) == 0
        files = {p.name: p.read_bytes() for p in sorted(ws["out"].iterdir())}
        runs.append((files, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert "skipped 6 malformed line(s) of 603" in runs[0][1].err


def test_verbose_stderr_is_the_same_for_any_workers(tmp_path):
    """Real processes, so that whatever a worker logs reaches stderr."""
    import crisismon

    ws = _split_workspace(tmp_path)
    script = ("import sys; from crisismon import cli, corpus; "
              "corpus.usable_cpus = lambda: 2; corpus.MIN_POOL_BYTES = 1; "
              "sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(crisismon.__file__))}
    errs = []
    for workers in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, "--verbose", "analyze", "--config",
                               str(ws["config"]), "--workers", workers],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert b"INFO crisismon" in errs[0] and b"skipped 6 malformed line(s) of 603" in errs[0]


@pytest.mark.parametrize("hostile, reason", [
    ("day", "date value out of range"),
    ("deep", "nested more than 500 deep"),
])
@pytest.mark.parametrize("command", ["stats", "analyze"])
def test_hostile_lines_are_malformed_for_any_workers(tmp_path, capsys, pool_on, command,
                                                     hostile, reason):
    """A day before year 1 at UTC-3, and nesting too deep for json, in the
    share that the forked worker folds when there are two processes."""
    ws = write_burst_workspace(tmp_path, seed=31, n_days=20, per_day=30)
    corpus = ws["corpus"]
    lines = corpus.read_bytes().splitlines(keepends=True)
    if hostile == "day":
        obj = json.loads(lines[449])
        obj["created_at"] = "0001-01-01T01:00:00Z"
        lines[449] = json.dumps(obj).encode() + b"\n"
    else:
        lines[449] = b"[" * 100_000 + b"\n"
    corpus.write_bytes(b"".join(lines))
    runs = []
    for workers in ("1", "2"):
        assert run_cli(command, "--config", str(ws["config"]), "--workers", workers) == 0
        files = {p.name: p.read_bytes() for p in sorted(ws["out"].iterdir())}
        runs.append((files, capsys.readouterr()))
    assert runs[0] == runs[1]
    err = runs[0][1].err
    assert "skipped 1 malformed line(s) of 600\n" in err
    assert f"  {corpus}: line 450: {reason}" in err
    for workers in ("1", "2"):
        assert run_cli(command, "--config", str(ws["config"]), "--workers", workers,
                       "--strict") == 2
        assert capsys.readouterr().err.startswith(f"error: {corpus}: line 450: {reason}")


def test_a_dead_corpus_worker_is_an_error_line(tmp_path, capsys, monkeypatch, pool_on):
    from crisismon import corpus as corpus_mod

    parent, count = os.getpid(), corpus_mod._count_stats

    def killed_in_worker(recs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return count(recs)

    monkeypatch.setattr(corpus_mod, "_count_stats", killed_in_worker)
    ws = _split_workspace(tmp_path)
    assert run_cli("stats", "--config", str(ws["config"]), "--workers", "2") == 2
    assert capsys.readouterr().err == "error: a corpus worker was killed by signal 9\n"


class TestExpand:
    def _workspace(self, tmp_path):
        lex = tmp_path / "seed.json"
        lex.write_text(json.dumps({"name": "anxiety", "terms": ["miedo"]}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"anxiety": "seed.json"}))
        emb = tmp_path / "emb.txt"
        rows = [
            "6 3",
            "miedo 1.0 0.0 0.0",
            "temor 0.9 0.1 0.0",
            "pánico 0.8 0.2 0.0",
            "susto 0.7 0.3 0.0",
            "calma -1.0 0.0 0.0",
            "otro 0.0 1.0 0.0",
        ]
        emb.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cats = tmp_path / "cats.json"
        cats.write_text(
            json.dumps(
                {
                    "name": "demo",
                    "categories": {
                        "fear": ["miedo", "temor", "pánico"],
                        "calm": ["calma"],
                        "nada": ["zzz"],
                    },
                },
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "manifest": str(manifest),
                    "embeddings": str(emb),
                    "categories": str(cats),
                    "out": str(tmp_path / "out"),
                }
            )
        )
        return config, tmp_path / "out"

    def test_one_seed_produces_bounded_mapping(self, tmp_path):
        config, out = self._workspace(tmp_path)
        assert run_cli("expand", "--config", str(config), "--k", "3", "--m", "2") == 0
        mapping = json.loads((out / "mappings" / "anxiety.json").read_text())
        assert mapping["construct"] == "anxiety"
        assert 0 < len(mapping["ranked"]) <= 2
        assert mapping["ranked"][0]["category"] == "fear"

    def test_missing_embeddings_exits_two(self, tmp_path):
        config, _ = self._workspace(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["embeddings"] = str(tmp_path / "missing.txt")
        config.write_text(json.dumps(cfg))
        assert run_cli("expand", "--config", str(config)) == 2

    def test_expansion_equals_brute_force(self, tmp_path):
        config, out = self._workspace(tmp_path)
        assert run_cli("expand", "--config", str(config), "--k", "3") == 0
        expanded = json.loads((out / "expanded" / "anxiety.json").read_text())
        tokens = ["miedo", "temor", "pánico", "susto", "calma", "otro"]
        matrix = [
            [1.0, 0, 0], [0.9, 0.1, 0], [0.8, 0.2, 0],
            [0.7, 0.3, 0], [-1.0, 0, 0], [0.0, 1.0, 0],
        ]
        expect = {"miedo"} | {t for t, _ in brute_knn(tokens, matrix, 0, 3)}
        assert set(expanded["terms"]) == expect

    def test_k_below_one_fails_before_any_input_is_opened(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(tmp_path / "missing-manifest.json"),
            "embeddings": str(tmp_path / "missing-emb.txt"),
            "categories": str(tmp_path / "missing-cats.json"),
            "out": str(tmp_path / "out"),
        }))
        assert run_cli("expand", "--config", str(config), "--k", "0") == 1
        assert "k and m must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["seed.json", "manifest.json", "emb.txt", "cats.json",
                                      "config.json"])
    def test_invalid_utf8_exits_two_naming_the_file(self, tmp_path, capsys, name):
        config, out = self._workspace(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert run_cli("expand", "--config", str(config)) == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_planted_burst_recovered(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=20, per_day=120)
        assert run_cli("analyze", "--config", str(ws["config"]), "--workers", "1") == 0
        with open(ws["out"] / "peaks.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)]
        joint_rises = [r for r in rows if r["marker"] == "JOINT" and r["direction"] == "rise"]
        assert len(joint_rises) == 1
        peak_day = (date.fromisoformat(joint_rises[0]["date"]) - date(2020, 3, 1)).days
        assert 40 <= peak_day <= 46
        # per-marker and joint outputs all exist
        assert (ws["out"] / "prevalence.csv").exists()
        assert (ws["out"] / "heatmap.svg").exists()
        assert (ws["out"] / "series.csv").exists()

    def test_empty_date_range_is_validation_error(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=21, n_days=5, per_day=5)
        code = run_cli(
            "analyze", "--config", str(ws["config"]),
            "--from", "2020-05-29", "--to", "2020-03-01",
        )
        assert code == 1

    def test_one_day_range_fails_before_any_input_is_opened(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"categories": str(tmp_path / "no_such_categories.json"),
                                   "out": str(tmp_path / "out")}))
        assert run_cli("analyze", "--config", str(cfg), "--from", "2020-03-05",
                       "--to", "2020-03-05", str(tmp_path / "no_such_corpus.jsonl")) == 1
        assert ("error: date range 2020-03-05..2020-03-05 needs at least 2 days"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_a_range_with_no_analyzable_tweet_runs_without_a_warning(self, tmp_path, capsys):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        objs = [json.loads(line) for line in ws["corpus"].read_text().splitlines()]
        ws["corpus"].write_text("".join(json.dumps({**obj, "kind": "retweet"}) + "\n"
                                        for obj in objs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("analyze", "--config", str(ws["config"]),
                           "--to", "2020-03-10", "--workers", "1") == 0
        assert sorted(p.name for p in ws["out"].iterdir()) == [
            "heatmap.svg", "peaks.csv", "prevalence.csv", "series.csv"]
        assert ((ws["out"] / "peaks.csv").read_text().splitlines()
                == ["date,marker,direction,height,prominence"])
        assert capsys.readouterr().err == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=22, n_days=40, per_day=40)
        outputs = ["prevalence.csv", "peaks.csv", "heatmap.svg", "series.csv"]
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-04-09") == 0
        first = {name: (ws["out"] / name).read_bytes() for name in outputs}
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-04-09") == 0
        second = {name: (ws["out"] / name).read_bytes() for name in outputs}
        assert first == second

    def test_stage_table_and_annotations_written_when_configured(self, tmp_path, data_dir):
        ws = write_burst_workspace(tmp_path, seed=23, n_days=40, per_day=40)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-04-09"
        stages = tmp_path / "stages.csv"
        stages.write_text(
            "stage,start,end\nearly,2020-03-01,2020-03-20\nlate,2020-03-21,2020-04-09\n"
        )
        cfg["stages"] = str(stages)
        cfg["events"] = str(data_dir / "events" / "mental_health.csv")
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 0
        with open(ws["out"] / "stage_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["stage"] for r in rows} == {"early", "late"}
        assert {r["marker"] for r in rows} == {"alfa", "beta", "gama"}
        assert (ws["out"] / "annotations.csv").exists()

    def test_unknown_marker_subset_is_validation_error(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        cfg["markers"] = ["alfa", "desconocido"]
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 1
        assert not (ws["out"] / "prevalence.csv").exists()

    def test_bad_window_fails_before_the_corpus_is_read(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--window", "0", missing) == 1
        assert not ws["out"].exists()

    def test_empty_category_set_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        ws["categories"].write_text(json.dumps({"name": "none", "categories": {}}))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), missing) == 1
        assert f"error: {ws['categories']}: no categories" in capsys.readouterr().err
        assert not ws["out"].exists()

    def test_missing_stages_file_fails_before_any_output(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        cfg["stages"] = str(tmp_path / "no_such_stages.csv")
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 2
        assert not ws["out"].exists()

    def test_negative_lead_fails_before_any_output(self, tmp_path, data_dir):
        ws = write_burst_workspace(tmp_path, seed=25, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        cfg["events"] = str(data_dir / "events" / "mental_health.csv")
        cfg["lead"] = -1
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 1
        for name in ["prevalence.csv", "series.csv", "peaks.csv", "heatmap.svg"]:
            assert not (ws["out"] / name).exists()

    @pytest.mark.parametrize("key", ["categories", "events", "stages"])
    def test_invalid_utf8_exits_two_naming_the_file(self, tmp_path, capsys, data_dir, key):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        good = {"categories": ws["categories"],
                "events": data_dir / "events" / "mental_health.csv",
                "stages": data_dir / "stages" / "argentina_2020.csv"}[key]
        path = tmp_path / f"bad-{good.name}"
        path.write_bytes(good.read_bytes() + b"\xff\n")
        cfg = json.loads(ws["config"].read_text())
        cfg.update({key: str(path), "date_to": "2020-03-10"})
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not ws["out"].exists()

    @pytest.mark.parametrize("bad", [b"{broken", b'{"id": \xff}'])
    def test_lenient_run_reports_malformed_line(self, tmp_path, capsys, bad):
        ws = write_burst_workspace(tmp_path, seed=27, n_days=10, per_day=10)
        with ws["corpus"].open("ab") as fh:
            fh.write(bad + b"\n")
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-03-10") == 0
        assert "skipped 1 malformed line(s) of 101" in capsys.readouterr().err
        assert (ws["out"] / "prevalence.csv").exists()


class TestRender:
    def test_render_from_prevalence_csv(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=25, n_days=20, per_day=30)
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-03-20") == 0
        analyze_svg = (ws["out"] / "heatmap.svg").read_bytes()
        render_out = tmp_path / "render_out"
        code = run_cli(
            "render", "--out", str(render_out), "--window", "7",
            str(ws["out"] / "prevalence.csv"),
        )
        assert code == 0
        assert (render_out / "heatmap.svg").read_bytes() == analyze_svg

    def test_render_crops_by_date_flags(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=26, n_days=20, per_day=30)
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-03-20") == 0
        render_out = tmp_path / "crop_out"
        code = run_cli(
            "render", "--out", str(render_out),
            "--from", "2020-03-05", "--to", "2020-03-10",
            str(ws["out"] / "prevalence.csv"),
        )
        assert code == 0
        svg = (render_out / "heatmap.svg").read_text()
        assert svg.count("<rect") < (ws["out"] / "heatmap.svg").read_text().count("<rect")

    def test_categories_over_different_days_render_the_union(self, tmp_path):
        # "a" lacks 2020-03-04 and "b" lacks 2020-03-01: both show hatched.
        path = tmp_path / "prevalence.csv"
        path.write_text(
            "date,category,matched,total,percent\n"
            + "".join(f"2020-03-0{d},a,{d},10,{10 * d}.0\n" for d in (1, 2, 3))
            + "".join(f"2020-03-0{d},b,{d},10,{10 * d}.0\n" for d in (2, 3, 4))
        )
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 0
        fills = re.findall(r'<rect x="[^"]*" [^>]*fill="([^"]+)"/>',
                           (tmp_path / "out" / "heatmap.svg").read_text())
        hatched = [i for i, f in enumerate(fills) if f == "url(#missing)"]
        assert len(fills) == 8 and hatched == [3, 4]

    @pytest.mark.parametrize("flags, config", [
        (["--from", "2020-03-10", "--to", "2020-03-05"], {}),
        ([], {"markers": ["alfa", "desconocido"]}),
    ], ids=["from-after-to", "unknown-marker"])
    def test_validation_failure_leaves_no_output_directory(self, tmp_path, flags, config):
        ws = write_burst_workspace(tmp_path, seed=26, n_days=20, per_day=30)
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--to", "2020-03-20") == 0
        cfg = tmp_path / "render.json"
        cfg.write_text(json.dumps(config))
        render_out = tmp_path / "render_out"
        code = run_cli("render", "--config", str(cfg), "--out", str(render_out),
                       *flags, str(ws["out"] / "prevalence.csv"))
        assert code == 1
        assert not render_out.exists()

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_fails_before_the_csv_is_read(self, tmp_path, capsys, window):
        out = tmp_path / "out"
        code = run_cli("render", "--out", str(out), "--window", window,
                       str(tmp_path / "missing.csv"))
        assert code == 1
        assert "window must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_a_csv_with_only_a_header_exits_one(self, tmp_path, capsys):
        path = tmp_path / "prevalence.csv"
        path.write_text("date,category,matched,total,percent\n")
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 1
        assert f"error: {path}: no prevalence rows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input_exits_two(self, tmp_path):
        assert run_cli("render", "--out", str(tmp_path), str(tmp_path / "no.csv")) == 2

    @pytest.mark.parametrize("body, says", [
        (b"date,category,matched,total\n2020-03-01,A,1,2\n", "expected columns"),
        (b"date,category,matched,total,percent\n2020-13-01,A,1,2,50.0\n", "line 2"),
        (b"date,category,matched,total,percent\n2020-03-01,\xff,1,2,50.0\n", "utf-8"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-01,a,5,10,50.0\n", "line 3: duplicate 2020-03-01 a"),
    ], ids=["missing-column", "bad-date", "invalid-utf8", "duplicate-row"])
    def test_malformed_prevalence_csv_exits_two(self, tmp_path, capsys, body, says):
        path = tmp_path / "prevalence.csv"
        path.write_bytes(body)
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 2
        err = capsys.readouterr().err
        assert says in err
        assert f"error: {path}: " in err
        assert not (tmp_path / "out").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crisismon", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "stats" in proc.stdout and "render" in proc.stdout
