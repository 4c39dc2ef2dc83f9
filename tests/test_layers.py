"""The package's modules import only downward.

Every ``src/iohp/*.py`` module is parsed with ``ast``, including imports made
inside functions, and each import of another package module must point to a
lower layer: errors -> matrices -> planner/synthetic -> encoding -> engine ->
costmodel -> cli.  ``__init__`` re-exports the public names and sits on top.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iohp"
LAYER = {"errors": 0, "matrices": 1, "planner": 2, "synthetic": 2,
         "encoding": 3, "engine": 4, "costmodel": 5, "cli": 6, "__init__": 7}


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every import of a sibling package module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[1])
                    for alias in node.names if alias.name.startswith("iohp.")]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "iohp" and not (
                    node.module or "").startswith("iohp."):
                continue
            module = (node.module or "").removeprefix("iohp").lstrip(".")
            if module:
                out.append((node.lineno, module.split(".")[0]))
            else:  # ``from . import engine``
                out += [(node.lineno, alias.name) for alias in node.names]
    return sorted(out)


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYER)


@pytest.mark.parametrize("name", sorted(LAYER))
def test_imports_point_down(name):
    path = PACKAGE / f"{name}.py"
    upward = [f"{path.name}:{line} imports {module}"
              for line, module in package_imports(path)
              if LAYER.get(module, LAYER[name]) >= LAYER[name]]
    assert not upward


def test_function_level_and_absolute_imports_are_seen(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import iohp.cli\n"
                   "def f():\n"
                   "    from .costmodel import run\n"
                   "    from . import engine\n"
                   "    from iohp.planner import feasible\n"
                   "    import numpy\n")
    assert package_imports(src) == [(1, "cli"), (3, "costmodel"),
                                    (4, "engine"), (5, "planner")]
