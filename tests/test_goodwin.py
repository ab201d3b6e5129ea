from dataclasses import replace

import numpy as np
import pytest

from _invalid_runs import INVALID_RUNS
from circuitlab.goodwin import (
    FIG1_PARAMS,
    FIG2_PARAMS,
    FIG3_PARAMS,
    GoodwinParams,
    GoodwinState,
    conservation,
    drift,
    fixed_point,
    simulate,
)
from circuitlab.rng import RngStream


def rk4_orbit(state, params, horizon, dt):
    """Reference integrator for deterministic orbits (oracle, independent of
    the package's Euler path)."""
    def f(y):
        return np.array(drift(GoodwinState(*y), params))

    y = np.array([state.s_w, state.lambda_w])
    n = int(round(horizon / dt))
    out = np.empty((n + 1, 2))
    out[0] = y
    for k in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def test_classical_fixed_point_is_stationary():
    s, lam = fixed_point(FIG1_PARAMS)
    assert (s, lam) == pytest.approx((2.0 / 3.0, 1.125))  # note lambda* > 1
    assert drift(GoodwinState(s, lam), FIG1_PARAMS) == pytest.approx((0.0, 0.0))


def test_classical_drift_direct_arithmetic():
    # oracle: -(a - b*lam)*s = -(0.225-0.16)*0.75, (c - d*s)*lam = (0.4-0.45)*0.8
    ds, dl = drift(GoodwinState(0.75, 0.8), FIG1_PARAMS)
    assert ds == pytest.approx(-0.04875, abs=1e-15)
    assert dl == pytest.approx(-0.04, abs=1e-15)


def test_regularized_reduces_to_classical():
    # the barrier terms vanish with omega: the drift is continuous at omega = 0
    params = GoodwinParams(a=0.3, b=0.25, c=0.5, d=0.7, omega=0.0)
    st = GoodwinState(0.41, 0.83)
    near = drift(st, replace(params, omega=1e-12))
    assert near != drift(st, params)
    assert near == pytest.approx(drift(st, params), rel=0.0, abs=1e-11)


def test_regularized_fixed_point_interior_and_stationary():
    s, lam = fixed_point(FIG2_PARAMS)
    assert 0 < s < 1 and 0 < lam < 1
    ds, dl = drift(GoodwinState(s, lam), FIG2_PARAMS)
    assert abs(ds) < 1e-12 and abs(dl) < 1e-12


def test_regularized_fixed_point_reduces_at_omega_zero():
    p = GoodwinParams(a=0.225, b=0.2, c=0.4, d=0.6, omega=0.0)
    assert fixed_point(p) == pytest.approx((2.0 / 3.0, 1.125))


def test_boundary_state_rejected():
    with pytest.raises(ValueError, match="lambda_w"):
        drift(GoodwinState(0.5, 1.0), FIG2_PARAMS)


def test_conservation_gradient_zero_at_fixed_point():
    params = FIG1_PARAMS
    s0, l0 = fixed_point(params)
    # lambda* > 1 here: use a parameter set with an interior fixed point
    params = GoodwinParams(a=0.15, b=0.2, c=0.4, d=0.6)
    s0, l0 = fixed_point(params)
    h = 1e-6

    def psi(s, lam):
        return conservation(GoodwinState(s, lam), params)

    gs = (psi(s0 + h, l0) - psi(s0 - h, l0)) / (2 * h)
    gl = (psi(s0, l0 + h) - psi(s0, l0 - h)) / (2 * h)
    assert abs(gs) < 1e-6 and abs(gl) < 1e-6


def test_conservation_constant_on_rk4_orbit():
    params = FIG1_PARAMS
    start = GoodwinState(0.75, 0.8)
    orbit = rk4_orbit(start, params, horizon=25.0, dt=1e-3)
    psi = np.array([conservation(GoodwinState(s, lam), params) for s, lam in orbit[::500]])
    assert np.max(np.abs(psi - psi[0])) / abs(psi[0]) < 1e-6


def test_regularized_conservation_constant_and_minimal():
    params = FIG2_PARAMS
    start = GoodwinState(0.75, 0.8)
    orbit = rk4_orbit(start, params, horizon=25.0, dt=1e-3)
    psi = np.array([conservation(GoodwinState(s, lam), params) for s, lam in orbit[::500]])
    assert np.max(np.abs(psi - psi[0])) / abs(psi[0]) < 1e-6
    # fixed point is the global minimum over a grid of the open unit square
    s_star, l_star = fixed_point(params)
    psi_star = conservation(GoodwinState(s_star, l_star), params)
    grid = np.linspace(0.02, 0.98, 49)
    vals = np.array([conservation(GoodwinState(s, lam), params) for s in grid for lam in grid])
    assert psi_star <= vals.min() + 1e-12


def test_classical_run_violates_unit_square():
    # Natural constraints are violated: lambda_w exceeds 1 during the cycle
    res = simulate(GoodwinState(0.75, 0.95), FIG1_PARAMS,
                   horizon=50.0, dt=1e-3, paths=1)
    assert res.lambda_range[1] > 1.0


def test_regularized_run_confined():
    res = simulate(GoodwinState(0.75, 0.95), FIG2_PARAMS,
                   horizon=50.0, dt=1e-3, paths=1)
    assert 0.0 < res.s_range[0] and res.s_range[1] < 1.0
    assert 0.0 < res.lambda_range[0] and res.lambda_range[1] < 1.0
    assert res.clamp_events == 0


def test_stochastic_run_confined_low_clamp_rate():
    res = simulate(GoodwinState(0.75, 0.8), FIG3_PARAMS,
                   horizon=20.0, dt=1e-3, paths=32, stream=RngStream(21))
    assert 0.0 < res.s_range[0] and res.s_range[1] < 1.0
    assert 0.0 < res.lambda_range[0] and res.lambda_range[1] < 1.0
    assert res.clamp_rate < 1e-3


def test_stochastic_orbits_nonperiodic():
    # stochastic path does not return to its start the way the closed orbit does
    res = simulate(GoodwinState(0.75, 0.8), FIG3_PARAMS,
                   horizon=25.0, dt=1e-3, paths=2, stream=RngStream(5))
    final = np.array([res.s_w[-1, 0], res.lambda_w[-1, 0]])
    other = np.array([res.s_w[-1, 1], res.lambda_w[-1, 1]])
    assert not np.allclose(final, other, atol=1e-3)


def test_simulate_reproducible():
    a = simulate(GoodwinState(0.7, 0.9), FIG3_PARAMS, 1.0, 1e-3,
                 paths=4, stream=RngStream(17))
    b = simulate(GoodwinState(0.7, 0.9), FIG3_PARAMS, 1.0, 1e-3,
                 paths=4, stream=RngStream(17))
    assert np.array_equal(a.s_w, b.s_w)
    assert np.array_equal(a.lambda_w, b.lambda_w)


def test_composites_assembly():
    p = GoodwinParams.from_composites(a=0.2, b=0.3, alpha=0.01, beta=0.01,
                                      gamma=0.02, nu_f=0.5, xi_a=0.01)
    assert p.c == pytest.approx(0.45)
    assert p.d == pytest.approx(0.5)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        GoodwinParams(a=-1, b=0.2, c=0.4, d=0.6)
    for params in (FIG1_PARAMS, FIG3_PARAMS):
        for overrides, message in INVALID_RUNS:
            run = {"horizon": 1.0, "dt": 0.1, **overrides}
            with pytest.raises(ValueError, match=message):
                simulate(GoodwinState(0.5, 0.5), params, **run)
