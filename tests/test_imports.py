"""Every name a `circuitlab` module imports is used there or re-exported,
every private top-level name is used somewhere in the package, and only
`rng.py` reaches numpy's random module.

No linter ships with the test environment, so these are stdlib `ast` checks.
A module-level or local import binds names, and each bound name must be
read somewhere in the module or listed in its `__all__`.  `__future__`
imports are directives, not names, and are skipped.  A top-level function,
class or constant whose name starts with one underscore must be read, or
imported, somewhere in `src/circuitlab/` outside its own definition, so a
helper whose last caller was deleted does not linger.  Every random draw
comes from `RngStream` or `PathNoise`, so `np.random` is read nowhere else.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circuitlab"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["os (line 2)", "tau (line 3)"]
    assert unused_imports("from m import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def _references(tree: ast.Module) -> set[tuple[str, int]]:
    """(name, id of the top-level statement holding the read) per read."""
    out = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, id(top)))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, id(top)))
            elif isinstance(node, ast.ImportFrom):
                out.update((alias.name, id(top)) for alias in node.names)
    return out


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = set().union(*(_references(t) for t in trees.values()))
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name, node in _private_definitions(tree).items()
                  if not any(n == name and top != id(node) for n, top in reads))


def test_checker_flags_an_unreferenced_private_name():
    src = ("def _helper():\n    return _helper()\n"
           "_LIMIT = 7\n_UNUSED = 3\nclass _Box: pass\n"
           "def public():\n    return _LIMIT\n")
    other = "from .a import _Box\n"
    assert unreferenced_privates({"a.py": src, "b.py": other}) == ["a.py: _UNUSED", "a.py: _helper"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unreferenced_privates(sources) == []


def random_reads(source: str) -> list[int]:
    """Lines that reach numpy's random module: `np.random` on a name bound to
    numpy, or an import of `numpy.random` or of `random` from numpy."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (module.startswith("numpy.random")
                   or module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_a_random_read():
    src = ("import numpy as xp\nfrom numpy import random\nimport numpy.random\n"
           "from numpy.random import default_rng\nx = xp.random.default_rng(1)\n"
           "y = xp.linspace(0.0, 1.0)\nrandom = 3\n")
    assert random_reads(src) == [2, 3, 4, 5]


def test_only_rng_reads_numpy_random():
    assert {p.name for p in MODULES if random_reads(p.read_text())} == {"rng.py"}
