import csv
import hashlib
import inspect
import json
import os
import random
import re
import signal
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import pytest

from crisismon import cli
from crisismon.cli import RunConfig, main
from crisismon.reporting import annotate_peaks

from oracles import brute_knn, naive_stats
from synth import write_burst_workspace


def run_cli(*argv) -> int:
    return main(list(argv))


# SHA-256 of each file of TestAnalyze::test_outputs_keep_their_recorded_bytes.
RECORDED_DIGESTS = {
    "prevalence.csv": "7fbdae24e84369de3fc997e407bc57cbdcceb20932373257905e9488ede14087",
    "series.csv": "50b808823c6ffca34f06277598fc02c84019cac301ffc91a78cffa5a1cfc2416",
    "peaks.csv": "3007a3234696eb50302a16f4237a335be3b571a0eecd0fd29fc8e6f53c4f5c72",
    "heatmap.svg": "402ca4962c3a9f4ac2cf4b081c58e6de5a5979c0d681e8a60716c0bb43fefac8",
    "annotations.csv": "545e737a8fbb57a1ec8d7f60ad4a904cc673acac217f119ec8cea7359831114b",
    "stage_table.csv": "76b0aec91b4b0eca1743f6762d40300ee5a81bcdf674d3ac148584b5bc4ce903",
    "render-raw": "50645bd31256dcdd3b2600d1ec1f210728271c3ce60b95fa568627556337c66e",
    "render-window-9": "5893dffbb8ede512536395f7a9bfe8b9c70a27fa21a2456c156a5d9f06efaf7e",
    "render-cropped": "0c798d4b90d46e00407629db1d16ce1331bdabdfbeb60be65d77a96609b9eed6",
}


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
            cfg.check("analyze")

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

    @pytest.mark.parametrize("key, value, says", [
        ("window", "7", "must be int, got '7'"),
        ("corpus", ["a.jsonl", 1], "must be list[str], got ['a.jsonl', 1]"),
        ("events", 3, "must be str | None, got 3"),
        ("markers", "a", "must be list[str] | None, got 'a'"),
        ("k", [[[[[[[[[[]]]]]]]]]], "must be int, got [[[[[[[...]]]]]]]"),
        ("out", ["o" * 5000], "must be str, got ['oooooooooooo...ooooooooooooo']"),
    ], ids=["int", "list", "optional", "optional-list", "nested", "long"])
    def test_a_wrongly_typed_value_is_named_by_its_type_and_shown_cut_short(
        self, tmp_path, capsys, key, value, says
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        assert run_cli("render", "--config", str(path), str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == f"error: {path}: config key {key!r} {says}\n"

    def test_a_deeply_nested_value_gives_a_short_error_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"k": ' + "[" * 400 + "]" * 400 + "}")
        assert run_cli("render", "--config", str(path), str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: config key 'k' must be int, got [[[")
        assert len(err) - len(str(path)) < 80

    def test_a_huge_integer_is_reported_without_advice_no_user_can_take(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"k": 1' + "0" * 5000 + "}")
        assert run_cli("render", "--config", str(path), str(tmp_path / "p.csv")) == 2
        assert capsys.readouterr().err == (f"error: {path}: invalid JSON: "
                                           "an integer of 5001 digits, more than 4300\n")

    @pytest.mark.parametrize("key, value", [("sigma_mult", 2), ("markers", None),
                                            ("workers", None)])
    def test_int_for_a_float_and_null_where_allowed(self, tmp_path, key, value):
        ws = write_burst_workspace(tmp_path, seed=29, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({key: value, "date_to": "2020-03-10"})
        ws["config"].write_text(json.dumps(cfg))
        assert getattr(RunConfig.from_file(ws["config"]), key) == value
        assert run_cli("analyze", "--config", str(ws["config"])) == 0


# One broken value per config rule, and what the error says.
BROKEN_RULES = {
    "k": ({"k": 0}, "error: k and m must be >= 1"),
    "m": ({"m": 0}, "error: k and m must be >= 1"),
    "window": ({"window": 0}, "error: window must be >= 1"),
    "huge-window": ({"window": 2**62}, f"error: window must be <= 366, got {2**62}"),
    "lead": ({"lead": -1}, "error: lead must be >= 0"),
    "sigma_mult": ({"sigma_mult": float("inf")}, "error: sigma_mult must be finite, got inf"),
    "tz_offset_hours": ({"tz_offset_hours": 24},
                        "error: tz_offset_hours must be within -23..23, got 24"),
    "workers": ({"workers": 0}, "error: workers must be >= 1"),
    "markers": ({"markers": []},
                "error: markers must name at least one category, or be null"),
    "malformed-date": ({"date_from": "March 1"}, "'March 1'"),
    "impossible-date": ({"date_from": "2020-02-30"},
                        "error: date_from must be an ISO date (YYYY-MM-DD), got '2020-02-30'"),
    # Forms that 3.11's date.fromisoformat reads and 3.10's does not.
    "basic-date": ({"date_from": "20200301"},
                   "error: date_from must be an ISO date (YYYY-MM-DD), got '20200301'"),
    "week-date": ({"date_to": "2020-W10-1"},
                  "error: date_to must be an ISO date (YYYY-MM-DD), got '2020-W10-1'"),
    "reversed-dates": ({"date_from": "2020-03-10", "date_to": "2020-03-05"},
                       "error: date_from 2020-03-10 after date_to 2020-03-05"),
    "century-plus-range": ({"date_from": "0001-01-01", "date_to": "9999-12-31"},
                           "error: date range 0001-01-01..9999-12-31 spans 3652059 days, "
                           "more than 36525"),
}


def _unopened_inputs(tmp_path: Path, command: str) -> tuple[dict, list[str]]:
    """A config naming every input ``command`` needs, none of which exists,
    and the positional arguments that go with it."""
    missing = str(tmp_path / "missing")
    config = {"stats": {"corpus": [missing]},
              "expand": {"manifest": missing, "embeddings": missing, "categories": missing},
              "analyze": {"corpus": [missing], "categories": missing,
                          "date_from": "2020-03-01", "date_to": "2020-03-10"},
              "render": {}}[command]
    return config, [missing] if command == "render" else []


class TestCheck:
    """``RunConfig.check`` runs before a command opens any input: each case
    names only inputs that do not exist, so exit 1 rather than 2 shows the
    rule was checked first."""

    @pytest.mark.parametrize("command", ["stats", "expand", "analyze", "render"])
    @pytest.mark.parametrize("rule", list(BROKEN_RULES))
    def test_every_command_checks_every_rule(self, tmp_path, capsys, command, rule):
        change, says = BROKEN_RULES[rule]
        config, positional = _unopened_inputs(tmp_path, command)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **change, "out": str(tmp_path / "out")}))
        assert run_cli(command, "--config", str(path), *positional) == 1
        assert says in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, says", [
        ("stats", "corpus", "at least one corpus path"),
        ("expand", "manifest", "a lexicon manifest path"),
        ("expand", "embeddings", "an embeddings path"),
        ("expand", "categories", "a category-set path"),
        ("analyze", "categories", "a category-set path"),
        ("analyze", "date_from", "date_from and date_to (or --from/--to)"),
        ("analyze", "date_to", "date_from and date_to (or --from/--to)"),
        ("analyze", "corpus", "at least one corpus path"),
    ])
    def test_a_command_without_a_key_it_needs_exits_one(self, tmp_path, capsys, command,
                                                        key, says):
        config, positional = _unopened_inputs(tmp_path, command)
        del config[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
        assert run_cli(command, "--config", str(path), *positional) == 1
        assert capsys.readouterr().err == f"error: config needs {says}\n"
        assert not (tmp_path / "out").exists()

    def test_render_checks_its_date_flags_before_the_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("render", "--out", str(out), "--from", "2020-03-10", "--to",
                       "2020-03-05", str(tmp_path / "missing.csv")) == 1
        assert capsys.readouterr().err == (
            "error: date_from 2020-03-10 after date_to 2020-03-05\n")
        assert not out.exists()

    def test_a_range_of_a_century_passes_and_a_longer_one_does_not(self):
        start = date(2020, 3, 1)
        last = start + timedelta(days=36_524)
        assert RunConfig(date_from=str(start), date_to=str(last)).check("render") == (start, last)
        with pytest.raises(ValueError, match=r"2020-03-01\.\.2120-03-02 spans 36526 days, "
                                             "more than 36525"):
            RunConfig(date_from=str(start), date_to=str(last + timedelta(days=1))).check("render")

    def test_dates_are_returned_parsed_or_none(self):
        assert RunConfig().check("render") == (None, None)
        assert RunConfig(date_to="2020-03-05").check("render") == (None, date(2020, 3, 5))
        assert RunConfig(date_from="2020-03-01", date_to="2020-03-02").check("render") == (
            date(2020, 3, 1), date(2020, 3, 2))


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

    def test_there_is_no_verbose_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--verbose", "analyze", "corpus.jsonl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err

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


def test_stderr_is_the_same_for_any_workers(tmp_path):
    """Real processes, so that whatever a worker writes reaches stderr."""
    import crisismon

    ws = _split_workspace(tmp_path)
    script = ("import sys; from crisismon import cli, corpus; "
              "corpus.usable_cpus = lambda: 2; corpus.MIN_POOL_BYTES = 1; "
              "sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(crisismon.__file__))}
    errs = []
    for workers in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, "analyze", "--config",
                               str(ws["config"]), "--workers", workers],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert b"skipped 6 malformed line(s) of 603" in errs[0]
    assert len(re.findall(rb"^dropped \d+ document\(s\) outside ", errs[0], re.M)) == 1


def _cli_in_fresh_process(script, *argv, block_numpy=False):
    """The last stdout line of ``script`` run in a new interpreter with the
    pool on (two CPUs, no size floor), ``cli`` and ``os`` imported; with
    ``block_numpy``, any import of NumPy raises ``ImportError``."""
    import crisismon

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(crisismon.__file__))}
    head = ("import os, sys; "
            + ("sys.modules['numpy'] = None; " if block_numpy else "")
            + "from crisismon import cli, corpus; "
            "corpus.usable_cpus = lambda: 2; corpus.MIN_POOL_BYTES = 1; ")
    proc = subprocess.run([sys.executable, "-c", head + script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_stats_never_loads_numpy(tmp_path):
    ws = _split_workspace(tmp_path)
    script = "code = cli.main(sys.argv[1:]); print(code, 'numpy' in sys.modules)"
    assert _cli_in_fresh_process(script, "stats", "--config", str(ws["config"])) == "0 False"


def test_analyze_and_render_never_load_numpy(tmp_path, capsys, data_dir, pool_on):
    """In an interpreter where importing NumPy raises, analyze (events,
    stages and markers; serial and pooled) and render (raw and smoothed)
    exit 0 and write the bytes of a run with NumPy importable."""
    ws = _split_workspace(tmp_path)
    stages = tmp_path / "stages.csv"
    stages.write_text("stage,start,end\nearly,2020-03-01,2020-03-08\n"
                      "late,2020-03-09,2020-03-20\n")
    cfg = json.loads(ws["config"].read_text())
    cfg.update(events=str(data_dir / "events" / "mental_health.csv"), stages=str(stages),
               markers=["gama", "alfa"])
    ws["config"].write_text(json.dumps(cfg))
    prevalence = str(tmp_path / "open" / "serial" / "prevalence.csv")

    def commands(root):
        return [["analyze", "--config", str(ws["config"]), "--workers", "1",
                 "--out", str(root / "serial")],
                ["analyze", "--config", str(ws["config"]), "--workers", "2",
                 "--out", str(root / "pooled")],
                ["render", "--out", str(root / "raw"), prevalence],
                ["render", "--window", "9", "--out", str(root / "smoothed"), prevalence]]

    def outputs(root):
        return {(d.name, p.name): p.read_bytes()
                for d in sorted(root.iterdir()) for p in sorted(d.iterdir())}

    for argv in commands(tmp_path / "open"):
        assert run_cli(*argv) == 0
    capsys.readouterr()
    script = ("import json\n"
              "print([cli.main(argv) for argv in json.loads(sys.argv[1])])")
    assert _cli_in_fresh_process(script, json.dumps(commands(tmp_path / "blocked")),
                                 block_numpy=True) == "[0, 0, 0, 0]"
    expected = outputs(tmp_path / "open")
    assert len(expected) == 6 + 6 + 1 + 1
    assert outputs(tmp_path / "blocked") == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_stats_and_analyze_fork_from_a_single_threaded_process(tmp_path):
    """NumPy, whose BLAS may start threads, is imported only after the fold."""
    ws = _split_workspace(tmp_path)
    script = ("threads, fork = [], os.fork\n"
              "def counted():\n"
              "    threads.append(len(os.listdir('/proc/self/task')))\n"
              "    return fork()\n"
              "os.fork = counted\n"
              "codes = [cli.main([c, '--config', sys.argv[1], '--workers', '2'])\n"
              "         for c in ('stats', 'analyze')]\n"
              "print(codes, threads)")
    assert _cli_in_fresh_process(script, str(ws["config"])) == "[0, 0] [1, 1]"


@pytest.mark.parametrize("hostile, reason", [
    ("day", "date value out of range"),
    ("deep", "nested more than 500 deep"),
    ("bigid", "an integer of 5001 digits, more than 4300"),
    ("truncated", "Expecting ',' delimiter: column 49"),
])
@pytest.mark.parametrize("command", ["stats", "analyze"])
def test_hostile_lines_are_malformed_for_any_workers(tmp_path, capsys, pool_on, command,
                                                     hostile, reason):
    """A day before year 1 at UTC-3, nesting too deep for json, an id of
    more digits than Python converts and a record cut short, in the share
    that the forked worker folds when there are two processes."""
    ws = write_burst_workspace(tmp_path, seed=31, n_days=20, per_day=30)
    corpus = ws["corpus"]
    lines = corpus.read_bytes().splitlines(keepends=True)
    if hostile == "day":
        obj = json.loads(lines[449])
        obj["created_at"] = "0001-01-01T01:00:00Z"
        lines[449] = json.dumps(obj).encode() + b"\n"
    elif hostile == "bigid":
        obj = json.loads(lines[449])
        obj["id"] = "?"
        lines[449] = json.dumps(obj).replace('"?"', "1" + "0" * 5000).encode() + b"\n"
    elif hostile == "truncated":  # its column counts within the line, not past its \n
        lines[449] = b'{"id": "1", "created_at": "2020-03-01T10:00:00Z"\n'
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
    assert f"  {corpus}: line 450: {reason}\n" in err
    for workers in ("1", "2"):
        assert run_cli(command, "--config", str(ws["config"]), "--workers", workers,
                       "--strict") == 2
        assert capsys.readouterr().err == f"error: {corpus}: line 450: {reason}\n"


def test_a_worker_that_cannot_send_its_counts_is_an_error_line(tmp_path, capsys, monkeypatch,
                                                                pool_on):
    """A worker whose outcome does not pickle exits with a status, not a signal."""
    from crisismon import corpus as corpus_mod

    parent, count = os.getpid(), corpus_mod._count_stats

    def unpicklable_in_worker(recs):
        stats = count(recs)
        return stats if os.getpid() == parent else (stats, recs)  # a generator does not pickle

    monkeypatch.setattr(corpus_mod, "_count_stats", unpicklable_in_worker)
    ws = _split_workspace(tmp_path)
    assert run_cli("stats", "--config", str(ws["config"]), "--workers", "2") == 2
    assert capsys.readouterr().err == "error: a corpus worker exited with status 1\n"
    assert not ws["out"].exists()


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


ANALYZE_FILES = ("prevalence.csv", "series.csv", "peaks.csv", "heatmap.svg",
                 "annotations.csv", "stage_table.csv")


def _study_workspace(tmp_path, data_dir):
    """A burst workspace over 40 days whose config names events and stages."""
    ws = write_burst_workspace(tmp_path, seed=26, n_days=40, per_day=30)
    stages = tmp_path / "stages.csv"
    stages.write_text("stage,start,end\nearly,2020-03-01,2020-03-25\n"
                      "late,2020-03-20,2020-04-09\n")
    cfg = json.loads(ws["config"].read_text())
    cfg.update(date_to="2020-04-09", stages=str(stages),
               events=str(data_dir / "events" / "mental_health.csv"))
    ws["config"].write_text(json.dumps(cfg))
    return ws


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ANALYZE_FILES}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_report_is_a_function_of_the_counts(tmp_path, capsys, data_dir, pool_on,
                                                workers):
    """The report half of analyze, given only the counts read back from its
    prevalence CSV, writes every analyze file with the same bytes."""
    from crisismon import matching, reporting

    ws = _study_workspace(tmp_path, data_dir)
    assert run_cli("analyze", "--config", str(ws["config"]), "--workers", workers) == 0
    cfg = RunConfig.from_file(ws["config"])._replace(out=str(tmp_path / "report"))
    agg = matching.read_prevalence_csv(ws["out"] / "prevalence.csv")
    assert cli._report(agg, cfg, cli._markers(cfg.markers, agg.categories),
                       reporting.load_events_csv(cfg.events),
                       reporting.load_stages_csv(cfg.stages)) == 0
    assert _outputs(tmp_path / "report") == _outputs(ws["out"])
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(ANALYZE_FILES)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_every_line_twice_doubles_only_the_counts(tmp_path, capsys, data_dir, pool_on,
                                                  workers):
    """Each derived file depends on the prevalence percentages alone, and
    ``2m / 2t`` rounds to the same float as ``m / t``."""
    ws = _study_workspace(tmp_path, data_dir)
    assert run_cli("analyze", "--config", str(ws["config"]), "--workers", workers) == 0
    once = _outputs(ws["out"])
    lines = ws["corpus"].read_bytes().splitlines(keepends=True)
    ws["corpus"].write_bytes(b"".join(line + line for line in lines))
    assert run_cli("analyze", "--config", str(ws["config"]), "--workers", workers,
                   "--out", str(tmp_path / "twice")) == 0
    twice = _outputs(tmp_path / "twice")
    for name in ANALYZE_FILES[1:]:
        assert twice[name] == once[name], name
    rows = [list(csv.DictReader(data.decode("utf-8").splitlines()))
            for data in (once["prevalence.csv"], twice["prevalence.csv"])]
    assert len(rows[0]) == len(rows[1]) > 0
    for a, b in zip(*rows):
        assert (b["date"], b["category"], b["percent"]) == (a["date"], a["category"],
                                                            a["percent"])
        assert (int(b["matched"]), int(b["total"])) == (2 * int(a["matched"]),
                                                        2 * int(a["total"]))
    assert sum(int(r["matched"]) for r in rows[0]) > 0


@pytest.mark.parametrize("seed", range(6))  # 4, 2, 1, 2, 2 and 3 files
def test_the_corpus_cut_into_files_writes_the_same_bytes(tmp_path, capsys, data_dir, pool_on,
                                                         seed):
    """The corpus cut into 1 to 4 files at drawn line boundaries writes the
    files of the whole corpus, and the same stderr at --workers 1 and 2,
    whose two shares then meet inside a file or at a file's end."""
    ws = _study_workspace(tmp_path, data_dir)
    assert run_cli("analyze", "--config", str(ws["config"]), "--workers", "1") == 0
    whole = _outputs(ws["out"])
    capsys.readouterr()
    rng = random.Random(seed)
    lines = ws["corpus"].read_bytes().splitlines(keepends=True)
    cuts = sorted(rng.sample(range(1, len(lines)), rng.randint(0, 3)))
    paths = []
    for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(lines)])):
        paths.append(str(tmp_path / f"cut{i}.jsonl"))
        Path(paths[-1]).write_bytes(b"".join(lines[a:b]))
    cfg = json.loads(ws["config"].read_text())
    cfg["corpus"] = paths
    ws["config"].write_text(json.dumps(cfg))
    runs = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"out{workers}")
        assert run_cli("analyze", "--config", str(ws["config"]), "--workers", workers,
                       "--out", out) == 0
        runs.append((_outputs(Path(out)), capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][0] == whole


def _rerun_with_lines(tmp_path, capsys, ws, workers, lines) -> None:
    """``analyze`` of the corpus, then of ``lines`` in its place, write the
    same files and the same stderr."""
    runs = []
    for i in range(2):
        if i:
            ws["corpus"].write_bytes(b"".join(lines))
        out = str(tmp_path / f"run{i}")
        assert run_cli("analyze", "--config", str(ws["config"]), "--workers", workers,
                       "--out", out) == 0
        runs.append((_outputs(Path(out)), capsys.readouterr().err))
    assert runs[1] == runs[0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_corpus_lines_shuffled_write_the_same_bytes(tmp_path, capsys, data_dir, pool_on,
                                                        workers):
    """No output depends on the order of the corpus lines."""
    ws = _study_workspace(tmp_path, data_dir)
    lines = ws["corpus"].read_bytes().splitlines(keepends=True)
    random.Random(40).shuffle(lines)
    _rerun_with_lines(tmp_path, capsys, ws, workers, lines)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_retweets_added_write_the_same_bytes(tmp_path, capsys, data_dir, pool_on, workers):
    """Retweets are left out before anything is counted: copies of drawn lines
    as retweets with fresh ids, a third of them dated a year after the range,
    change no file and no stderr line."""
    ws = _study_workspace(tmp_path, data_dir)
    lines = ws["corpus"].read_bytes().splitlines(keepends=True)
    rng = random.Random(41)
    for i in range(len(lines) // 3):
        tweet = json.loads(rng.choice(lines))
        tweet.update(id=f"rt{i}", kind="retweet")
        if i % 3 == 0:
            tweet["created_at"] = tweet["created_at"].replace("2020-", "2021-", 1)
        lines.insert(rng.randrange(len(lines) + 1), json.dumps(tweet).encode() + b"\n")
    _rerun_with_lines(tmp_path, capsys, ws, workers, lines)


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

    @pytest.mark.parametrize("name, key, value", [
        ("config.json", "out", '"elsewhere"'),
        ("manifest.json", "anxiety", '"cats.json"'),
        ("seed.json", "terms", '["calma"]'),
        ("cats.json", "name", '"other"'),
    ], ids=["run-config", "manifest", "lexicon", "category-set"])
    def test_a_repeated_json_key_exits_two(self, tmp_path, monkeypatch, capsys,
                                           name, key, value):
        monkeypatch.chdir(tmp_path)
        config, out = self._workspace(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text(encoding="utf-8").rstrip()[:-1]
                        + f', "{key}": {value}}}', encoding="utf-8")
        assert run_cli("expand", "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate key '{key}'\n"
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("categories", [
        '{"c\\ud800": ["miedo"]}', '{"fear": ["mi\\udc00edo"]}',
        '{"fear": ["\\ude00\\ud83d"]}',
    ], ids=["key", "value", "reversed-pair"])
    def test_a_lone_surrogate_exits_two_and_writes_nothing(self, tmp_path, capsys, categories):
        config, out = self._workspace(tmp_path)
        cats = tmp_path / "cats.json"
        cats.write_text(f'{{"name": "demo", "categories": {categories}}}', encoding="utf-8")
        assert run_cli("expand", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cats}: lone surrogate ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, body, says", [
        ("seed.json", '{"name": null, "terms": ["miedo"]}',
         "expected an object with 'name' and 'terms', 'name' a string"),
        ("seed.json", '{"name": "anxiety", "terms": "miedo"}',
         "the terms of 'anxiety' must be an array of strings"),
        ("cats.json", '{"name": 5, "categories": {"fear": ["miedo"]}}',
         "expected an object with 'name' and 'categories', 'name' a string"),
        ("config.json", '{"k": 1' + "0" * 5000 + "}",
         "invalid JSON: an integer of 5001 digits, more than 4300"),
        ("config.json", '["k", 3]', "config must be a JSON object"),
        ("cats.json", '{"name": "demo", "categories": ["miedo"]}',
         "'categories' must be an object"),
        ("manifest.json", '["seed.json"]', "manifest must be an object"),
        ("emb.txt", "six 3\nmiedo 1.0 0.0 0.0\n", "line 1: non-integer header"),
        ("emb.txt", "0 3\n", "line 1: header values must be >= 1"),
        ("emb.txt", "1 0\nmiedo\n", "line 1: header values must be >= 1"),
    ], ids=["lexicon-name-null", "lexicon-terms-a-string", "category-set-name-a-number",
            "config-a-huge-integer", "config-an-array", "categories-an-array",
            "manifest-an-array", "embeddings-header-a-word", "embeddings-of-no-rows",
            "embeddings-of-no-dimensions"])
    def test_a_misshapen_lexicon_file_exits_two(self, tmp_path, capsys, name, body, says):
        config, out = self._workspace(tmp_path)
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        assert run_cli("expand", "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: {path}: {says}\n"
        assert not out.exists()

    def test_a_category_named_with_a_surrogate_pair_loads(self, tmp_path):
        config, out = self._workspace(tmp_path)
        cats = tmp_path / "cats.json"
        cats.write_text(json.dumps({"name": "demo", "categories": {"fear\U0001f600": ["miedo"]}}))
        assert "\\ud83d\\ude00" in cats.read_text()
        assert run_cli("expand", "--config", str(config)) == 0
        mapping = json.loads((out / "mappings" / "anxiety.json").read_text(encoding="utf-8"))
        assert mapping["ranked"][0]["category"] == "fear\U0001f600"

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

    def test_a_header_claiming_a_huge_table_is_a_format_error(self, tmp_path, capsys):
        # The file can hold no 300-wide row, so nothing that size is allocated.
        config, out = self._workspace(tmp_path)
        emb = tmp_path / "emb.txt"
        emb.write_text("1000000000000 300\na 1 2\n", encoding="utf-8")
        assert run_cli("expand", "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: {emb}: line 2: expected 301 fields, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("header,says", [
        ("1 100000000000000000000\na 1\n",
         "line 2: expected 100000000000000000001 fields, got 2"),
        ("1 4611686018427387904\n", "expected 1 rows, file has 0"),
    ], ids=["past int64", "past the largest array"])
    def test_a_dimension_past_numpy_limits_is_a_format_error(self, tmp_path, capsys,
                                                             header, says):
        # The matrix is allocated at the first row, so a header alone sizes nothing.
        config, out = self._workspace(tmp_path)
        emb = tmp_path / "emb.txt"
        emb.write_text(header, encoding="utf-8")
        assert run_cli("expand", "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: {emb}: {says}\n"
        assert not out.exists()

    def test_a_construct_that_is_no_file_name_fails_before_the_embeddings(self, tmp_path,
                                                                          capsys):
        # Written as given, "../../x" would land beside the config, two levels
        # above out/expanded.
        config, out = self._workspace(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"../../x": "seed.json"}))
        (tmp_path / "emb.txt").unlink()
        assert run_cli("expand", "--config", str(config)) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: construct '../../x' is not a plain file name\n")
        assert not out.exists()

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

    def test_outputs_keep_their_recorded_bytes(self, tmp_path, data_dir):
        """A whole analyze run with events, stages and a marker subset out of
        sorted order, and renders of its prevalence CSV, write the bytes
        recorded when each file's layout was last settled."""
        ws = write_burst_workspace(tmp_path, seed=23, n_days=60, per_day=40)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({"date_to": "2020-04-29", "markers": ["gama", "alfa"],
                    "events": str(data_dir / "events" / "mental_health.csv"),
                    "stages": str(data_dir / "stages" / "argentina_2020.csv")})
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"]), "--workers", "1") == 0
        written = {name: (ws["out"] / name).read_bytes() for name in (
            "prevalence.csv", "series.csv", "peaks.csv", "heatmap.svg",
            "annotations.csv", "stage_table.csv")}
        markers = tmp_path / "markers.json"
        markers.write_text(json.dumps({"markers": ["gama", "alfa"]}))
        for name, flags in {"render-raw": [], "render-window-9": ["--window", "9"],
                            "render-cropped": ["--config", str(markers), "--from",
                                               "2020-03-20", "--to", "2020-04-15"]}.items():
            out = tmp_path / name
            assert run_cli("render", "--out", str(out), *flags,
                           str(ws["out"] / "prevalence.csv")) == 0
            written[name] = (out / "heatmap.svg").read_bytes()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
        assert digests == RECORDED_DIGESTS

    def test_unknown_marker_subset_is_validation_error(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        cfg["markers"] = ["alfa", "desconocido"]
        ws["config"].write_text(json.dumps(cfg))
        assert run_cli("analyze", "--config", str(ws["config"])) == 1
        assert not (ws["out"] / "prevalence.csv").exists()

    def test_duplicate_marker_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({"date_to": "2020-03-10", "markers": ["alfa", "beta", "alfa"]})
        ws["config"].write_text(json.dumps(cfg))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), missing) == 1
        assert capsys.readouterr().err == "error: duplicate markers in config: alfa\n"
        assert not ws["out"].exists()

    def test_a_category_named_joint_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cats = json.loads(ws["categories"].read_text())
        cats["categories"]["JOINT"] = cats["categories"].pop("beta")
        ws["categories"].write_text(json.dumps(cats))
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        ws["config"].write_text(json.dumps(cfg))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), missing) == 1
        assert capsys.readouterr().err == (
            f"error: {ws['categories']}: the name 'JOINT' is kept for joint peaks\n")
        assert not ws["out"].exists()

    def test_bad_window_fails_before_the_corpus_is_read(self, tmp_path):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]),
                       "--window", "0", missing) == 1
        assert not ws["out"].exists()

    @pytest.mark.parametrize("flags, config", [
        (["--sigma-mult", "nan"], {}),
        (["--sigma-mult", "inf"], {}),
        (["--sigma-mult=-inf"], {}),
        ([], {"sigma_mult": float("nan")}),
    ], ids=["nan-flag", "inf-flag", "minus-inf-flag", "nan-config"])
    def test_non_finite_sigma_mult_fails_before_the_corpus_is_read(
            self, tmp_path, capsys, flags, config):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        ws["config"].write_text(json.dumps({**cfg, **config}))  # NaN is written as NaN
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), *flags, missing) == 1
        assert "error: sigma_mult must be finite" in capsys.readouterr().err
        assert not ws["out"].exists()

    @pytest.mark.parametrize("command", ["stats", "analyze"])
    @pytest.mark.parametrize("hours", [24, -24, 30, 100000000000])
    def test_tz_offset_beyond_23_hours_fails_before_any_input_is_opened(
            self, tmp_path, capsys, command, hours):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({"tz_offset_hours": hours, "categories": str(tmp_path / "no_such.json")})
        ws["config"].write_text(json.dumps(cfg))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli(command, "--config", str(ws["config"]), missing) == 1
        assert capsys.readouterr().err == (
            f"error: tz_offset_hours must be within -23..23, got {hours}\n")
        assert not ws["out"].exists()

    @pytest.mark.parametrize("hours", [-23, 23])
    def test_tz_offset_of_23_hours_either_way_is_read(self, tmp_path, hours):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        assert run_cli("stats", "--out", str(ws["out"]), str(ws["corpus"])) == 0
        default = json.loads((ws["out"] / "stats.json").read_text())
        cfg = tmp_path / "tz.json"
        cfg.write_text(json.dumps({"tz_offset_hours": hours, "out": str(tmp_path / "tz")}))
        assert run_cli("stats", "--config", str(cfg), str(ws["corpus"])) == 0
        shifted = json.loads((tmp_path / "tz" / "stats.json").read_text())
        assert shifted["total"] == default["total"]

    def test_a_label_xml_forbids_is_drawn_as_u_fffd_and_kept_in_the_csvs(self, tmp_path):
        from xml.dom import minidom

        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        ws["categories"].write_text(json.dumps(
            {"name": "s", "categories": {"fe\x01ar": ["palabraalfa"], "ok": ["palabrabeta"]}}))
        assert run_cli("analyze", "--config", str(ws["config"]), "--to", "2020-03-10") == 0
        svg = minidom.parse(str(ws["out"] / "heatmap.svg"))
        labels = {t.firstChild.data for t in svg.getElementsByTagName("text")}
        assert {"fe\ufffdar", "ok"} <= labels
        with open(ws["out"] / "prevalence.csv", newline="", encoding="utf-8") as fh:
            assert {r["category"] for r in csv.DictReader(fh)} == {"fe\x01ar", "ok"}

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

    def test_negative_lead_fails_before_any_output(self, tmp_path, capsys, data_dir):
        # The corpus path does not exist: the lead is checked before it is read.
        ws = write_burst_workspace(tmp_path, seed=25, n_days=10, per_day=10)
        cfg = json.loads(ws["config"].read_text())
        cfg["date_to"] = "2020-03-10"
        cfg["events"] = str(data_dir / "events" / "mental_health.csv")
        cfg["lead"] = -1
        ws["config"].write_text(json.dumps(cfg))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), missing) == 1
        assert capsys.readouterr().err == "error: lead must be >= 0\n"
        assert not ws["out"].exists()

    def test_a_lead_past_year_one_looks_back_to_year_one(self, tmp_path, data_dir):
        ws = write_burst_workspace(tmp_path, seed=20, n_days=60, per_day=60)
        cfg = json.loads(ws["config"].read_text())
        cfg.update({"date_to": "2020-04-29",
                    "events": str(data_dir / "events" / "mental_health.csv")})
        written = {}
        # The first day's distance from 0001-01-01 reaches year 1 from any peak.
        for lead in ((date(2020, 3, 1) - date.min).days, 800_000, 10**10):
            ws["config"].write_text(json.dumps({**cfg, "lead": lead}))
            assert run_cli("analyze", "--config", str(ws["config"]), "--workers", "1") == 0
            written[lead] = (ws["out"] / "annotations.csv").read_bytes()
        first, *rest = written.values()
        assert first.count(b"\n") > 1  # a header and at least one joint peak
        assert rest == [first, first]

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

    @pytest.mark.parametrize("key, body, says", [
        ("stages", "start,end,stage\n2020-03-01,2020-03-02\n",
         "line 2: no cell for column 'stage'"),
        ("stages", "start,end,stage\n2020-03-01,2020-03-02,\n",
         "line 2: stage name must be non-empty"),
        ("events", "date,description,date\n2020-03-01,x,2020-03-02\n",
         "line 1: column 'date' named twice"),
        ("categories", '{"name": "c", "categories": {"a": "miedo"}}',
         "the terms of 'a' must be an array of strings"),
        ("categories", '{"name": "c", "categories": {"a": 5}}',
         "the terms of 'a' must be an array of strings"),
        ("categories", '{"name": "c", "categories": {"a": ["miedo", null]}}',
         "the terms of 'a' must be an array of strings"),
        # A quoted description over lines 2 and 3: the bad date is on line 4.
        ("events", 'date,description\n2020-03-01,"two\nlines"\n2020-13-01,x\n',
         "line 4: month must be in 1..12"),
        ("categories", "[" * 100_000 + "]" * 100_000,
         "invalid JSON: maximum recursion depth exceeded while decoding a JSON array "
         "from a unicode string"),
        ("events", "date,description\n2020-03-01,   \n",
         "line 2: event description must be non-empty"),
        ("stages", "stage,start,end\nlockdown,2020-03-05,2020-03-01\n",
         "line 2: stage 'lockdown': start after end"),
        ("events", "date,description\n20200301,x\n",
         "line 2: Invalid isoformat string: '20200301'"),
        ("stages", "stage,start,end\ns,2020-W10-1,2020-03-10\n",
         "line 2: Invalid isoformat string: '2020-W10-1'"),
        ("stages", "stage,start,end\n   ,2020-03-01,2020-03-02\n",
         "line 2: stage name must be non-empty"),
    ], ids=["stage-row-without-a-name", "empty-stage-name", "events-repeating-a-column",
            "category-a-string", "category-a-number", "category-with-a-null-term",
            "event-spanning-two-lines", "category-set-nested-too-deep",
            "event-without-a-description", "stage-ending-before-it-starts",
            "event-basic-date", "stage-week-date", "stage-named-by-blanks"])
    def test_a_misshapen_input_exits_two_before_the_corpus_is_read(
            self, tmp_path, capsys, key, body, says):
        ws = write_burst_workspace(tmp_path, seed=24, n_days=10, per_day=10)
        path = tmp_path / f"bad-{key}"
        path.write_text(body, encoding="utf-8")
        cfg = json.loads(ws["config"].read_text())
        cfg.update({key: str(path), "date_to": "2020-03-10"})
        ws["config"].write_text(json.dumps(cfg))
        missing = str(tmp_path / "no_such_corpus.jsonl")
        assert run_cli("analyze", "--config", str(ws["config"]), missing) == 2
        assert capsys.readouterr().err == f"error: {path}: {says}\n"
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

    @pytest.mark.parametrize("flags, asked", [
        (["--from", "2020-02-01"], "2020-02-01..2020-03-02"),
        (["--to", "2020-03-03"], "2020-03-01..2020-03-03"),
        (["--to", "2020-02-01"], "2020-03-01..2020-02-01"),
    ], ids=["from-before-the-first-day", "to-after-the-last-day", "to-before-the-first-day"])
    def test_dates_outside_the_csv_days_exit_one(self, tmp_path, capsys, flags, asked):
        path = tmp_path / "prevalence.csv"
        path.write_text("date,category,matched,total,percent\n"
                        "2020-03-01,a,1,10,10.0\n2020-03-02,a,2,10,20.0\n")
        out = tmp_path / "out"
        assert run_cli("render", "--out", str(out), *flags, str(path)) == 1
        assert capsys.readouterr().err == (f"error: {path}: cannot render {asked}: "
                                           "its days are 2020-03-01..2020-03-02\n")
        assert not out.exists()

    def test_categories_over_different_days_exit_two(self, tmp_path, capsys):
        # "a" lacks 2020-03-04 and "b" lacks 2020-03-01: a listed day lacks a
        # category, so the file holds no single row of day totals.
        path = tmp_path / "prevalence.csv"
        path.write_text(
            "date,category,matched,total,percent\n"
            + "".join(f"2020-03-0{d},a,{d},10,{10 * d}.0\n" for d in (1, 2, 3))
            + "".join(f"2020-03-0{d},b,{d},10,{10 * d}.0\n" for d in (2, 3, 4))
        )
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: 2020-03-01 has no row for b\n"
        assert not (tmp_path / "out").exists()

    def test_a_day_that_no_row_lists_renders_as_missing(self, tmp_path):
        path = tmp_path / "prevalence.csv"
        path.write_text(
            "date,category,matched,total,percent\n"
            + "".join(f"2020-03-0{d},{c},{d},10,{10 * d}.0\n" for d in (1, 3) for c in "ab")
        )
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 0
        fills = re.findall(r'<rect x="[^"]*" [^>]*fill="([^"]+)"/>',
                           (tmp_path / "out" / "heatmap.svg").read_text())
        hatched = [i for i, f in enumerate(fills) if f == "url(#missing)"]
        assert len(fills) == 6 and hatched == [1, 4]

    @pytest.mark.parametrize("flags, config", [
        (["--from", "2020-03-10", "--to", "2020-03-05"], {}),
        ([], {"markers": ["alfa", "desconocido"]}),
        ([], {"markers": ["alfa", "alfa"]}),
    ], ids=["from-after-to", "unknown-marker", "duplicate-marker"])
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

    @pytest.mark.parametrize("window", ["367", str(2**62), str(2**63)])
    def test_a_window_over_a_year_exits_one(self, tmp_path, capsys, window):
        path = tmp_path / "prevalence.csv"
        path.write_text("date,category,matched,total,percent\n"
                        "2020-03-01,a,1,10,10.0\n2020-03-02,a,2,10,20.0\n")
        out = tmp_path / "out"
        assert run_cli("render", "--out", str(out), "--window", window, str(path)) == 1
        assert capsys.readouterr().err == f"error: window must be <= 366, got {window}\n"
        assert not out.exists()
        assert run_cli("render", "--out", str(out), "--window", "366", str(path)) == 0

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
        (b"date,category,matched,total,percent\n2020-03-01,a,1" + b"0" * 400 + b",10,\n",
         "line 2: matched outside the int64 range"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1" + b"0" * 5000 + b",10,\n",
         "line 2: matched outside the int64 range"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-02,a,1,%d,0.0\n" % 2**63, "line 3: total outside the int64 range"),
        (b"date,category,matched,total,percent\n2020-03-01,a,-5,10,-50.0\n",
         "line 2: matched must be plain digits, got '-5'"),
        (b"date,category,matched,total,percent\n2020-03-01,a,5,+10,50.0\n",
         "line 2: total must be plain digits, got '+10'"),
        (b"date,category,matched,total,percent\n2020-03-01,a, 5,10,50.0\n",
         "line 2: matched must be plain digits, got ' 5'"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-02,a,1_0,10,100.0\n", "line 3: matched must be plain digits, got '1_0'"),
        ("date,category,matched,total,percent\n2020-03-01,a,\u0663,10,30.0\n".encode(),
         "line 2: matched must be plain digits, got '\u0663'"),
        (b"date,category,matched,total,percent\n2020-03-01,a,20,10,200.0\n",
         "line 2: matched 20 above total 10"),
        (b"date,category,matched,total,percent\n2020-03-01,a,2\n",
         "line 2: no cell for column 'total'"),
        (b"date,matched,total,percent,category\n2020-03-01,1,10,10.0,a\n2020-03-02,1,10,10.0\n",
         "line 3: no cell for column 'category'"),
        (b"date,matched,total,percent,category\n2020-03-01,1,10,10.0\n",
         "line 2: no cell for column 'category'"),
        (b"date,category,matched,total,percent,matched\n2020-03-01,a,1,10,10.0,2\n",
         "line 1: column 'matched' named twice"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-01,b,2,10,20.0\n2020-03-02,a,1,10,10.0\n", "2020-03-02 has no row for b"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-01,b,2,20,10.0\n",
         "line 3: total 20 for 2020-03-01 b, where an earlier row of 2020-03-01 gives 10"),
        (b"date,category,matched,total,percent\n0001-01-01,a,1,10,10.0\n"
         b"9999-12-31,a,1,10,10.0\n",
         ": 0001-01-01..9999-12-31 spans 3652059 days, more than 36525"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n\n"
         b"2020-03-02,a,x,10,10.0\n", "line 4: matched must be plain digits, got 'x'"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-01,a,1,10,10.0\n2020-03-02,a,1,10,10.0\n2020-03-03,a,x,10,10.0\n",
         "line 3: duplicate 2020-03-01 a"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n"
         b"2020-03-02," + b"b" * 200_000 + b",1,10,10.0\n", "line 3: field larger than field limit"),
        (b"date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n20200302,a,1,10,10.0\n",
         "line 3: Invalid isoformat string: '20200302'"),
    ], ids=["missing-column", "bad-date", "invalid-utf8", "duplicate-row",
            "count-of-401-digits", "count-of-5001-digits", "count-of-2-to-the-63", "negative-count",
            "count-with-a-sign", "count-with-a-space", "count-with-an-underscore",
            "count-in-arabic-indic-digits", "matched-above-total",
            "row-without-a-total", "row-without-a-category", "every-row-without-a-category",
            "a-repeated-column", "day-lacking-a-category", "two-totals-on-one-day",
            "span-of-eight-millennia", "bad-count-after-a-blank-line",
            "duplicate-before-a-bad-count", "cell-past-the-field-size-limit", "basic-date-cell"])
    def test_malformed_prevalence_csv_exits_two(self, tmp_path, capsys, body, says):
        path = tmp_path / "prevalence.csv"
        path.write_bytes(body)
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 2
        err = capsys.readouterr().err
        assert says in err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_a_category_named_joint_renders(self, tmp_path):
        # render writes no peaks, so no category name is kept from it.
        path = tmp_path / "prevalence.csv"
        path.write_text("date,category,matched,total,percent\n"
                        "2020-03-01,JOINT,1,10,10.0\n2020-03-02,JOINT,2,10,20.0\n")
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 0
        assert ">JOINT</text>" in (tmp_path / "out" / "heatmap.svg").read_text()

    def test_counts_at_the_int64_limit_render(self, tmp_path):
        path = tmp_path / "prevalence.csv"
        top = 2**63 - 1
        path.write_text("date,category,matched,total,percent\n"
                        f"2020-03-01,a,{top},{top},100.0\n2020-03-02,a,1,10,10.0\n")
        assert run_cli("render", "--out", str(tmp_path / "out"), str(path)) == 0
        fills = re.findall(r'<rect x="[^"]*" [^>]*fill="([^"]+)"/>',
                           (tmp_path / "out" / "heatmap.svg").read_text())
        assert fills == ["rgb(12.000000%,12.000000%,12.000000%)",
                         "rgb(96.000000%,96.000000%,96.000000%)"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crisismon", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "stats" in proc.stdout and "render" in proc.stdout
