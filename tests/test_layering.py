"""Modules import only earlier layers: corpus -> lexicon -> expansion/matching
-> series -> reporting -> cli. Any module may import ``errors``; the package
``__init__`` and ``__main__`` are exempt."""

import ast
from pathlib import Path

import pytest

import crisismon

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
