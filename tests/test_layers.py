"""The package's modules import only downward, and every name they define
is read.

Every ``src/iohp/*.py`` module is parsed with ``ast``, including imports made
inside functions, and each import of another package module must point to a
lower layer: errors -> matrices -> planner/synthetic -> encoding -> engine ->
costmodel -> cli.  ``__init__`` re-exports the public names and sits on top.
A module-level name, method or property that only tests read belongs in
``tests/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iohp"
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


def module_names(tree: ast.Module):
    """(name, defining node) of every module-level def, class and assignment,
    and, as ``Class.member``, of every method and property a class defines;
    dunders and class-level fields (dataclass fields) are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target)
                            if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{member.name}", member)
                        for member in node.body
                        if isinstance(member, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                        and not (member.name.startswith("__")
                                 and member.name.endswith("__")))


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded and attributes read anywhere in ``tree`` outside
    ``skip``; a name inside a string is not read."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_names(package: Path, readers: list[Path]) -> list[str]:
    """``module.name`` of each name no other package code and no reader
    reads; ``__init__``'s re-exports do not count as reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    outside = set().union(*(names_read(ast.parse(p.read_text(encoding="utf-8")))
                            for p in readers))
    unread = []
    for stem, tree in trees.items():
        for name, node in module_names(tree):
            attr = name.rpartition(".")[2]  # a member is read as an attribute
            if attr not in outside and not any(
                    attr in names_read(other, node if other is tree else None)
                    for other in trees.values()):
                unread.append(f"{stem}.{name}")
    return unread


def test_every_module_name_is_read_outside_tests():
    assert unread_names(PACKAGE, sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_unread_names_are_found(tmp_path):
    """A dunder and a class-level field are never reported; a member is
    read as an attribute, and reading itself does not count."""
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def used(x):\n    return x + LIMIT\n"
        "def recursive(x):\n    return recursive(x - 1)\n"
        "def quoted():\n    return 'only_in_b'\n"
        "class Kept:\n"
        "    field: int = 0\n"
        "    def __len__(self):\n        return self.sibling()\n"
        "    def sibling(self):\n        return 0\n"
        "    @property\n    def lonely(self):\n        return self.lonely\n"
        "    def bench_reads(self):\n        pass\n")
    (tmp_path / "b.py").write_text("def only_in_b():\n    return 'quoted'\n")
    (tmp_path / "__init__.py").write_text("from .a import recursive\n")
    bench = tmp_path / "bench.py"
    bench.write_text("from pkg import used\nused(1)\nprint(pkg.Kept)\n"
                     "pkg.Kept().bench_reads()\n")
    assert unread_names(tmp_path, [bench]) == [
        "a.recursive", "a.quoted", "a.Kept.lonely", "b.only_in_b"]
