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
No module imports scipy outside a function body, so importing the package
loads numpy only and scipy loads on the first call that needs it.
Every defaulted parameter of a function or method in `src/circuitlab/` is
passed by some call in `src/circuitlab/` or `bench/` (the benchmark's
workloads are the package's traffic), or is allowlisted with its reason, so
a setting nothing sets becomes a constant instead of a configuration to test.
Every public top-level function in `src/circuitlab/` is read by some code in
`src/circuitlab/` or `bench/`, or is listed with its reason, so a public name
that only tests reach is a stated choice.
Every source file parses with Python 3.10's grammar, the oldest version the
package supports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "circuitlab"
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


PY310_SOURCES = sorted(p for tree in ("src", "bench", "tests") for p in (ROOT / tree).rglob("*.py"))


def test_checker_flags_syntax_newer_than_python_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", PY310_SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in PY310_SOURCES])
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def module_level_scipy_imports(source: str) -> list[int]:
    """Lines that import scipy, or a scipy submodule, when the module itself
    is imported: every import statement outside a function body."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                hit = any(a.name.split(".")[0] == "scipy" for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                hit = not child.level and (child.module or "").split(".")[0] == "scipy"
            else:
                hit = False
            if hit:
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_checker_flags_a_module_level_scipy_import():
    src = ("import scipy\nfrom scipy.special import ive\nimport scipyx\n"
           "if True:\n    import scipy.linalg\nclass Box:\n    from scipy import optimize\n"
           "def f():\n    from scipy.special import ndtr\n    return ndtr\n"
           "from .scipy import x\n")
    assert module_level_scipy_imports(src) == [1, 2, 5, 7]


def test_no_module_imports_scipy_at_import_time():
    assert {p.name: lines for p in MODULES
            if (lines := module_level_scipy_imports(p.read_text()))} == {}


def _defaulted_parameters(tree: ast.Module, module: str) -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, its index among a call's positional
    arguments, or None if keyword-only) per defaulted parameter.  A method's
    self or cls takes no call argument, and __init__ is called by its class."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                shift = 1 if in_class and not static else 0
                name = prefix[:-1] if child.name == "__init__" else prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                out.extend((name, positional[i].arg, i - shift)
                           for i in range(first, len(positional)))
                out.extend((name, arg.arg, None)
                           for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None)
                visit(child, f"{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, f"{module}.", False)
    return out


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def _module_names(tree: ast.Module) -> dict[str, str]:
    """Names an import binds to a `circuitlab` module, mapped to the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "circuitlab"
                                                 or node.level and not node.module):
            out.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update((alias.asname, alias.name.split(".", 1)[1]) for alias in node.names
                       if alias.asname and alias.name.startswith("circuitlab."))
    return out


def unset_settings(defining: dict[str, str], calling: dict[str, str],
                   allowed=frozenset()) -> list[str]:
    """`module.function(parameter)` for each defaulted parameter in the
    `defining` sources that no call in `calling` passes and `allowed` does
    not list, plus each `allowed` entry that is passed or does not exist.
    A call on a name bound to a `circuitlab` module, `module.function(...)`,
    matches only that module's function; any other call matches by the
    function's name, whatever it is called on."""
    calls: dict[tuple[str | None, str], list[ast.Call]] = {}
    for src in calling.values():
        tree = ast.parse(src)
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                owner = (modules.get(func.value.id) if isinstance(func, ast.Attribute)
                         and isinstance(func.value, ast.Name) else None)
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault((owner, name), []).append(node)
    unset = set()
    for module, src in defining.items():
        for name, param, index in _defaulted_parameters(ast.parse(src), module):
            short = name.rsplit(".", 1)[-1]
            found = calls.get((None, short), [])
            if name == f"{module}.{short}":
                found = found + calls.get((module, short), [])
            if not any(_passes(c, param, index) for c in found):
                unset.add((name, param))
    report = [f"{name}({param})" for name, param in unset - set(allowed)]
    report += [f"allowlisted but set or absent: {name}({param})"
               for name, param in set(allowed) - unset]
    return sorted(report)


def test_checker_flags_a_setting_no_caller_passes():
    lib = ("def f(x, tol=1e-9, mode='a', *, scale=1.0):\n    return x\n"
           "class Box:\n    def __init__(self, size=1):\n        pass\n"
           "    def get(self, k=0):\n        return k\n"
           "def g(n=3):\n    return f(1, 2, scale=2.0)\n")
    user = "from a import Box\nBox(4).get()\n"
    sources = {"a": lib, "b": user}
    assert unset_settings({"a": lib}, sources) == ["a.Box.get(k)", "a.f(mode)", "a.g(n)"]
    # a call on another module's name passes nothing to a.f; one on a's does
    libs = {"a": "def f(x, tol=1e-9):\n    return x\n", "other": "def f(x, y):\n    return x\n"}
    caller = "from circuitlab import a, other\nother.f(1, 2)\n"
    assert unset_settings(libs, {**libs, "c": caller}) == ["a.f(tol)"]
    assert unset_settings(libs, {**libs, "c": caller + "a.f(1, 2)\n"}) == []
    allowed = {("a.g", "n"), ("a.f", "tol"), ("a.f", "gone")}
    assert unset_settings({"a": lib}, sources, allowed) == [
        "a.Box.get(k)", "a.f(mode)",
        "allowlisted but set or absent: a.f(gone)", "allowlisted but set or absent: a.f(tol)"]


# defaulted parameters that no call in the package or the benchmark sets,
# each kept for the reason given; a run setting that only tests change is a
# module constant, which they monkeypatch, and a model variant that the
# parameters already name (omega > 0 is the regularized system) is no setting
KEPT_SETTINGS = {
    ("keen.keen_drift", "with_nu_factor"): "model variant: the two printed regularized drifts",
    ("keen.simulate", "with_nu_factor"): "model variant: the two printed regularized drifts",
    ("network.fig15_network", "sigma"): "model parameter of the Fig 15 network",
    ("network.fig15_network", "mu"): "model parameter of the Fig 15 network",
    ("ledger.apply_event", "repo_haircut"): "the paper's central-bank repo collateral rule",
    ("ledger.two_bank_creation", "central_bank_fallback"):
        "the paper's central-bank funding of a cash shortfall",
    ("mmc.MmcResult.state_at", "path"): "reads any path of a batch",
    ("balance.evolve", "stream"): "a given stream makes the run stochastic",
}


def test_every_setting_is_passed_by_a_caller_or_kept_for_a_reason():
    defining = {p.stem: p.read_text() for p in MODULES}
    calling = {**defining, **{f"bench/{p.name}": p.read_text()
                              for p in sorted((ROOT / "bench").glob("*.py"))}}
    assert unset_settings(defining, calling, KEPT_SETTINGS) == []


def unreached_functions(sources: dict[str, str], defining: list[str],
                        allowed=frozenset()) -> list[str]:
    """`module.function` for each public top-level function of the
    `defining` modules that no code in `sources` reads, by name, attribute or
    import, outside its own definition, and that `allowed` does not list;
    plus each `allowed` entry that is read or does not exist.  A read
    matches by bare name, so a read of any same-named object counts."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = set().union(*(_references(t) for t in trees.values()))
    unreached = {f"{module}.{node.name}" for module in defining for node in trees[module].body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_")
                 and not any(n == node.name and top != id(node) for n, top in reads)}
    return sorted([*(unreached - set(allowed)),
                   *(f"allowlisted but read or absent: {name}" for name in set(allowed) - unreached)])


def test_checker_flags_a_function_nothing_reads():
    lib = ("def used():\n    return 1\ndef alone():\n    return alone()\n"
           "def _private():\n    return 0\nclass Box:\n    def method(self):\n        return 2\n")
    user = "from a import used\n"
    sources = {"a": lib, "b": user}
    assert unreached_functions(sources, ["a"]) == ["a.alone"]
    assert unreached_functions({**sources, "c": "import a\na.alone()\n"}, ["a"]) == []
    assert unreached_functions(sources, ["a"], {"a.alone", "a.used", "a.gone"}) == [
        "allowlisted but read or absent: a.gone", "allowlisted but read or absent: a.used"]


# public functions that no code in the package or the benchmark reads, each
# kept for the reason given; the tests check each against the model
KEPT_FUNCTIONS = {
    "goodwin.conservation": "the paper's conserved quantity of the Goodwin orbits",
    "goodwin.fixed_point": "the paper's interior equilibrium of the Goodwin drift",
    "keen.goodwin_equivalent": "the paper's reduction of leverage-free Keen to Goodwin",
    "keen.keen_drift": "the paper's Keen drift at one state, wrapping the simulator's kernel",
    "ledger.capital_check": "the paper's capital requirement on one bank's books",
    "ledger.two_bank_creation": "the paper's three-stage money creation across two banks",
    "mmc.mmc_drift_and_diffusion":
        "the paper's MMC drift and loadings at one state, wrapping the simulator's kernels",
    "network.instrument_payoffs": "the paper's two-bank CDS and first-to-default payoffs",
    "network.kappa_coeffs": "the paper's both-default payout fractions in closed form",
}


def test_every_public_function_is_reached_or_kept_for_a_reason():
    sources = {**{p.stem: p.read_text() for p in MODULES},
               **{f"bench/{p.name}": p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))}}
    assert unreached_functions(sources, [p.stem for p in MODULES], KEPT_FUNCTIONS) == []
