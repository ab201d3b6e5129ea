"""Importing circuitlab loads numpy only; scipy loads on first use.

The circuit models (Goodwin, Keen, MMC), the network Monte Carlo and the
stationary dividend barrier never reach scipy, so a fresh interpreter that
imports every module and runs them must end with no scipy module loaded.
`wedge.norm_cdf` and `dividend.solve_variational` import scipy.special and
scipy.linalg inside the function, and their first call in a fresh
interpreter must give the same bytes as a call where scipy was already
loaded.  No routine loads scipy.optimize.  Importing circuitlab starts no
thread, and a small Monte Carlo run starts none either.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circuitlab

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import numpy as np
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _run(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True,
                         text=True, timeout=300, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_circuit_and_network_runs_load_no_scipy():
    names = sorted(m.name for m in pkgutil.iter_modules(circuitlab.__path__))
    code = f"""
import importlib
for name in {names!r}:
    importlib.import_module("circuitlab." + name)
from circuitlab import goodwin, keen, mmc, network
from circuitlab.rng import RngStream
goodwin.simulate(goodwin.GoodwinState(0.7, 0.9), goodwin.FIG3_PARAMS, 1.0, 0.01,
                 paths=4, stream=RngStream(1))
keen.simulate(keen.KeenState(0.7, 0.9, 0.5), keen.FIG6_PARAMS, 1.0, 0.01,
              paths=4, stream=RngStream(2))
mmc.simulate(mmc.FIG8_STATE, mmc.FIG8_PARAMS, 1.0, 0.01)
net = network.fig15_network(rho=0.3)
network.simulate_paths(net, 1.0, 0.01, 64, stream=RngStream(3))
network.two_bank_survival_grid(net, 1.0, 0.01, 32, stream=RngStream(4))
# 1e-150 from the quadrant corner every Bessel term's first term underflows:
# the series gives its own value there, with no scipy fallback
from circuitlab import wedge
ctx = wedge.WedgeContext.build(0.3, [-0.5, -0.5])
wedge.wedge_green(ctx, 1.0, np.array([1e-150, 0.5]), np.array([1e-150, 0.5]), (2.0, 2.0))
print(scipy_modules())
"""
    assert {"dividend", "wedge"} <= set(names)
    assert _run(code) == "[]"


def test_imports_and_a_small_run_start_no_thread():
    # the noise worker thread starts on the first draw large enough to share
    names = sorted(m.name for m in pkgutil.iter_modules(circuitlab.__path__))
    code = f"""
import importlib, threading
def threads():
    return threading.active_count(), "concurrent.futures" in sys.modules
for name in {names!r}:
    importlib.import_module("circuitlab." + name)
imported = threads()
from circuitlab import goodwin, rng
goodwin.simulate(goodwin.GoodwinState(0.7, 0.9), goodwin.FIG3_PARAMS, 1.0, 0.01,
                 paths=4, stream=rng.RngStream(1))
print(imported, threads(), rng._worker_pool)
"""
    assert _run(code) == "(1, False) (1, False) None"


def test_stationary_barrier_loads_no_scipy():
    code = """
from circuitlab import dividend
dividend.stationary_barrier(dividend.FIG13_PARAMS)
print(scipy_modules())
"""
    assert _run(code) == "[]"


def test_deterministic_routines_load_no_scipy_optimize():
    # Q, Q1, the Fig 13 march and barrier and the balance-sheet search: the
    # scipy-backed routines load scipy.linalg and scipy.special only
    code = """
from circuitlab import balance, dividend, network, wedge
spec = wedge.QuadratureSpec(panels=2, order=6, time_panels=2, target=1.0)
net = network.fig15_network(rho=0.3)
wedge.joint_survival_Q(net, (2.0, 2.0), 1.0, spec)
wedge.marginal_survival_Q1(net, (2.0, 2.0), 1.0, spec)
dividend.solve_variational(dividend.FIG13_PARAMS, horizon=0.05, e_max=2.0, n_grid=200,
                           dtau=1e-3)
dividend.stationary_barrier(dividend.FIG13_PARAMS)
balance.constant_control_search(
    balance.FlowState(x=100.0, i=20.0, c=10.0, d=90.0, y=25.0, e=15.0),
    balance.FlowParams(lam=0.2, mu=0.25, nu=0.05, xi=0.03, alpha=0.15, beta=0.01,
                       r=0.06, zeta=0.02, sigma=0.2, discount=0.04, t_lag=1.0),
    balance.RegWeights(rwa=0.8, kappa=0.105, k2=1.0), horizon=1.0, dt=0.02,
    grid={"delta": np.array([0.0, 0.2])})
loaded = scipy_modules()
print([m for m in loaded if m.startswith("scipy.optimize")], "scipy.linalg" in loaded)
"""
    assert _run(code) == "[] True"


# each snippet binds `out` from one scipy-backed entry point
FIRST_CALLS = {
    "norm_cdf": "from circuitlab import wedge\n"
                "out = wedge.norm_cdf(np.linspace(-6.0, 6.0, 25))",
    "stationary_barrier": "from circuitlab import dividend\n"
                          "sol = dividend.stationary_barrier(dividend.FIG13_PARAMS)\n"
                          "out = np.append(sol.coeffs, sol.e_star)",
    "solve_variational": "from circuitlab import dividend\n"
                         "out = dividend.solve_variational(dividend.FIG13_PARAMS, horizon=0.05,\n"
                         "    e_max=2.0, n_grid=200, dtau=1e-3).values",
    "joint_survival_Q": "from circuitlab import network, wedge\n"
                        "spec = wedge.QuadratureSpec(panels=2, order=6, time_panels=2, target=1.0)\n"
                        "out = np.array(wedge.joint_survival_Q(network.fig15_network(rho=0.3),\n"
                        "    (2.0, 2.0), 1.0, spec))",
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_in_a_fresh_interpreter_matches_a_warm_call(name):
    snippet = FIRST_CALLS[name]
    fresh = _run(f"assert scipy_modules() == []\n{snippet}\n"
                 "print(np.asarray(out, dtype=float).tobytes().hex())")
    import scipy.linalg  # noqa: F401  (scipy already loaded in this process)
    import scipy.special  # noqa: F401
    scope = {"np": np}
    exec(snippet, scope)
    assert fresh == np.asarray(scope["out"], dtype=float).tobytes().hex()
