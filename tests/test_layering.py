"""Modules import only earlier layers: corpus -> lexicon -> expansion/matching
-> series -> reporting -> cli. Any module may import ``errors``; the package
``__init__`` and ``__main__`` are exempt."""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crisismon
from synth import write_burst_workspace

PACKAGE = Path(crisismon.__file__).resolve().parent
LAYER = {"corpus": 0, "lexicon": 1, "expansion": 2, "matching": 2,
         "series": 3, "reporting": 4, "cli": 5}


def relative_imports(path: Path) -> set[str]:
    """Names of the package modules that ``path`` imports with ``from .``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    exempt = {"__init__", "__main__", "errors"}
    assert {p.stem for p in PACKAGE.glob("*.py")} - exempt == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_only_earlier_layers(module):
    imported = relative_imports(PACKAGE / f"{module}.py") - {"errors"}
    later = {m for m in imported if LAYER[m] >= LAYER[module]}
    assert not later, f"{module} imports {sorted(later)} from its own or a later layer"


def test_every_class_is_a_named_tuple_an_exception_or_one_of_three():
    """Every record is a ``NamedTuple``; besides records and exceptions, the
    only classes are the mutable parse sink and the two built lookups."""
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    bases = {c.name: [ast.unparse(b).split(".")[-1] for b in c.bases] for c in classes}
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while True:  # an exception of the package may derive from another one
        derived = {name for name, names in bases.items() if exceptions.intersection(names)}
        if derived <= exceptions:
            break
        exceptions |= derived
    other = sorted(name for name, names in bases.items()
                   if names != ["NamedTuple"] and name not in exceptions
                   and name not in {"ParseReport", "Matcher", "EmbeddingTable"})
    assert other == []


def test_importing_the_package_loads_no_layer_and_no_numpy():
    """Fresh interpreters: the public names are imported on first use, and
    no layer module imports NumPy at its top."""
    layers = [f"crisismon.{m}" for m in LAYER]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    for imported, loaded in ((["crisismon"], []),
                             (layers, sorted(layers + ["crisismon.errors"]))):
        script = (f"import sys, {', '.join(imported)}; print(sorted(m for m in sys.modules "
                  "if m.startswith('crisismon.') or m.split('.')[0] == 'numpy'))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == f"{loaded}\n"


def test_no_subcommand_loads_logging(tmp_path):
    """A fresh interpreter runs every subcommand through ``cli.main``, one
    duplicate embedding token warned about: stderr carries plain lines, and
    ``logging`` is never imported."""
    ws = write_burst_workspace(tmp_path, n_days=20, per_day=30)
    (tmp_path / "anxiety.json").write_text('{"name": "anxiety", "terms": ["alfa"]}')
    (tmp_path / "manifest.json").write_text('{"anxiety": "anxiety.json"}')
    (tmp_path / "emb.txt").write_text("3 2\nalfa 1 0\nbeta 0.9 0.1\nalfa 0 1\n")
    expand = tmp_path / "expand.json"
    expand.write_text(json.dumps({"manifest": str(tmp_path / "manifest.json"),
                                  "embeddings": str(tmp_path / "emb.txt"),
                                  "categories": str(ws["categories"])}))
    out = str(ws["out"])
    runs = [["stats", "--config", str(ws["config"]), "--workers", "1"],
            ["expand", "--config", str(expand), "--out", out],
            ["analyze", "--config", str(ws["config"]), "--workers", "1"],
            ["render", "--out", out, str(ws["out"] / "prevalence.csv")]]
    script = ("import json, sys; from crisismon import cli; "
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
              "print(codes, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False", proc.stderr
    assert (f"warning: {tmp_path / 'emb.txt'}: line 4: duplicate token 'alfa', last row wins\n"
            in proc.stderr)


# Modules whose import a command's start-up does without: ``dataclasses``
# pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and only a fold that
# forks pickles. NumPy, which ``expand`` loads, imports ``inspect`` and ``pickle``.
START_UP_SPARES = ("dataclasses", "inspect", "pickle")


@pytest.mark.parametrize("command, spared", [
    ("stats", START_UP_SPARES), ("analyze", START_UP_SPARES), ("render", START_UP_SPARES),
    ("expand", ("dataclasses",)),
])
def test_no_subcommand_loads_dataclasses(tmp_path, command, spared):
    """A fresh interpreter runs one subcommand, the corpus read in this
    process: none of ``spared`` is loaded that was not loaded before."""
    ws = write_burst_workspace(tmp_path, n_days=20, per_day=30)
    (tmp_path / "anxiety.json").write_text('{"name": "anxiety", "terms": ["alfa"]}')
    (tmp_path / "manifest.json").write_text('{"anxiety": "anxiety.json"}')
    (tmp_path / "emb.txt").write_text("2 2\nalfa 1 0\nbeta 0.9 0.1\n")
    (tmp_path / "prevalence.csv").write_text(
        "date,category,matched,total,percent\n2020-03-01,a,1,10,10.0\n2020-03-02,a,2,10,20.0\n")
    expand = tmp_path / "expand.json"
    expand.write_text(json.dumps({"manifest": str(tmp_path / "manifest.json"),
                                  "embeddings": str(tmp_path / "emb.txt"),
                                  "categories": str(ws["categories"])}))
    out = str(ws["out"])
    argv = {"stats": ["stats", "--config", str(ws["config"]), "--workers", "1"],
            "analyze": ["analyze", "--config", str(ws["config"]), "--workers", "1"],
            "render": ["render", "--out", out, str(tmp_path / "prevalence.csv")],
            "expand": ["expand", "--config", str(expand), "--out", out]}[command]
    script = ("import json, sys; before = set(sys.modules); from crisismon import cli; "
              "code = cli.main(json.loads(sys.argv[1])); "
              "print(code, sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    assert not set(spared) & set(ast.literal_eval(loaded))


def test_every_public_name_resolves_to_its_module():
    for name in crisismon.__all__:
        value = getattr(crisismon, name)
        assert value.__module__.startswith("crisismon."), name
    assert set(crisismon.__all__) <= set(dir(crisismon))
    with pytest.raises(AttributeError):
        crisismon.no_such_name


def test_numpy_is_imported_only_for_embeddings_and_the_prevalence_arrays():
    """Only ``expansion`` works on arrays; ``DailyAggregate.prevalence``
    builds them for library callers. Every other function uses Python floats."""
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            if any(n and n.split(".")[0] == "numpy" for n in names):
                found.add((module, func))
        if isinstance(node, ast.FunctionDef):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert {module for module, _ in found} == {"expansion", "matching"}
    assert {func for module, func in found if module != "expansion"} == {"prevalence"}


def test_the_joint_row_is_named_only_in_series():
    """``series.JOINT`` names the joint peaks' row; every other module reads
    the constant, so the string literal appears nowhere else."""
    spelled = {path.stem for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and node.value == "JOINT"}
    assert spelled == {"series"}
