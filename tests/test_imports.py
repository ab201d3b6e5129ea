"""Every name a `circuitlab` module imports is used there or re-exported.

No linter ships with the test environment, so this is a stdlib `ast` check:
a module-level or local import binds names, and each bound name must be
read somewhere in the module or listed in its `__all__`.  `__future__`
imports are directives, not names, and are skipped.
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
