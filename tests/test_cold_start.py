"""Importing circuitlab loads numpy only; scipy loads on first use.

The circuit models (Goodwin, Keen, MMC) and the network Monte Carlo never
reach scipy, so a fresh interpreter that imports every module and runs them
must end with no scipy module loaded.  The wedge and dividend routines that
call scipy import it inside the function, and their first call in a fresh
interpreter must give the same bytes as a call where scipy was already
loaded.
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
print(scipy_modules())
"""
    assert {"bessel", "dividend", "wedge"} <= set(names)
    assert _run(code) == "[]"


# each snippet binds `out` from one scipy-backed entry point
FIRST_CALLS = {
    "norm_cdf": "from circuitlab import wedge\n"
                "out = wedge.norm_cdf(np.linspace(-6.0, 6.0, 25))",
    "iv_scaled_z800": "from circuitlab import bessel\n"
                      "out = bessel.iv_scaled(7.5, np.array([800.0, 3.0, 2500.0]))",
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
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    scope = {"np": np}
    exec(snippet, scope)
    assert fresh == np.asarray(scope["out"], dtype=float).tobytes().hex()
