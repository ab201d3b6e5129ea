import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from circuitlab import dividend
from circuitlab.dividend import (
    FIG13_PARAMS,
    EquityParams,
    SymbolCoefficients,
    jump_integral,
    solve_variational,
    stationary_barrier,
    symbol,
    symbol_roots,
)


def test_symbol_at_zero_is_minus_discount():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = EquityParams(mu=rng.uniform(-0.2, 0.3), sigma=rng.uniform(0.05, 1.0),
                         discount=rng.uniform(0.01, 0.4),
                         lambda1=rng.uniform(0.0, 0.5), delta1=rng.uniform(0.5, 5.0),
                         lambda2=rng.uniform(0.0, 0.5), delta2=rng.uniform(0.5, 5.0))
        assert abs(symbol(0.0, p) + p.discount) < 1e-14


def test_symbol_pole_rejected():
    with pytest.raises(ZeroDivisionError, match="pole"):
        symbol(-FIG13_PARAMS.delta1, FIG13_PARAMS)
    # identical (lambda, delta) sources are two pole factors, not none: the
    # cleared polynomial has the root -delta, which is refused by name
    p = EquityParams(mu=0.05, sigma=0.25, discount=0.10,
                     lambda1=0.05, delta1=3.0, lambda2=0.05, delta2=3.0)
    with pytest.raises(ValueError, match="collides with the symbol pole at -3.0"):
        symbol_roots(p)


def test_fig13_root_near_positive_value():
    assert abs(symbol(1.37, FIG13_PARAMS)) < 1e-3


def test_symbol_roots_fig13():
    roots = symbol_roots(FIG13_PARAMS)
    assert roots == pytest.approx([-4.08, -2.06, -0.84, 1.37], abs=0.01)
    assert np.max(np.abs(symbol(roots, FIG13_PARAMS))) < 1e-10


def test_symbol_roots_quadratic_reduction():
    p = EquityParams(mu=0.05, sigma=0.25, discount=0.10,
                     lambda1=0.0, delta1=3.0, lambda2=0.0, delta2=1.0)
    c = SymbolCoefficients.from_params(p)
    disc = math.sqrt(c.a1**2 - 4.0 * c.a2 * c.a0)
    expected = sorted([(-c.a1 - disc) / (2 * c.a2), (-c.a1 + disc) / (2 * c.a2)])
    roots = symbol_roots(p)
    assert len(roots) == 2
    assert roots == pytest.approx(expected, rel=1e-12)


def test_symbol_roots_random_residual():
    rng = np.random.default_rng(23)
    done = 0
    while done < 15:
        p = EquityParams(mu=rng.uniform(-0.1, 0.2), sigma=rng.uniform(0.1, 0.6),
                         discount=rng.uniform(0.02, 0.3),
                         lambda1=rng.uniform(0.005, 0.3), delta1=rng.uniform(1.5, 6.0),
                         lambda2=rng.uniform(0.005, 0.3), delta2=rng.uniform(0.3, 1.2))
        try:
            roots = symbol_roots(p)
        except ValueError:
            continue
        assert np.max(np.abs(symbol(roots, p))) < 1e-10
        done += 1


def test_stationary_barrier_conditions():
    sol = stationary_barrier(FIG13_PARAMS)
    assert abs(sol.value(0.0)) < 1e-10
    assert abs(sol.derivative(sol.e_star, 1) - 1.0) < 1e-10
    assert abs(sol.derivative(sol.e_star, 2)) < 1e-10
    # jump-consistency rows of the coefficient system
    for delta in (FIG13_PARAMS.delta1, FIG13_PARAMS.delta2):
        assert abs(np.sum(sol.coeffs / (sol.roots + delta))) < 1e-12
    # linear continuation beyond the barrier
    assert sol.value(sol.e_star + 1.0) == pytest.approx(
        sol.value(sol.e_star) + 1.0, rel=1e-12)


def test_stationary_barrier_evaluation_keeps_input_shape():
    # scalars give Python floats, arrays keep their shape (0-d included),
    # and every kind agrees elementwise with the 1-D evaluation
    sol = stationary_barrier(FIG13_PARAMS)
    flat = np.linspace(0.0, sol.e_star, 6)
    inputs = [
        (float(flat[2]), flat[2:3], float, ()),
        (np.float64(flat[5]), flat[5:6], float, ()),
        (np.asarray(flat[3]), flat[3:4], np.ndarray, ()),
        (flat, flat, np.ndarray, (6,)),
        (flat.reshape(2, 3), flat, np.ndarray, (2, 3)),
    ]
    evaluations = [sol.value, lambda e: sol.derivative(e, 1),
                   lambda e: sol.derivative(e, 2)]
    for f in evaluations:
        for e, points, kind, shape in inputs:
            out = f(e)
            assert type(out) is kind
            assert np.shape(out) == shape
            assert np.array_equal(np.ravel(out), f(points))
    for e in (sol.e_star + 0.5, np.full((2, 3), sol.e_star + 0.5)):
        for order in (1, 2):
            with pytest.raises(ValueError, match="below the barrier"):
                sol.derivative(e, order)


def test_barrier_increases_with_volatility():
    es = []
    for s in (0.25, 0.4, 0.6, 0.9):
        p = EquityParams(mu=0.05, sigma=s, discount=0.10,
                         lambda1=0.05, delta1=3.0, lambda2=0.02, delta2=1.0)
        es.append(stationary_barrier(p).e_star)
    assert all(b > a for a, b in zip(es, es[1:]))


def test_jump_integral_matches_quadrature():
    # fidelity of the exponential integrator against adaptive quadrature on
    # a frozen piecewise-linear slice
    grid = np.linspace(0.0, 3.0, 400)
    v = np.maximum(grid - 0.4, 0.0) ** 1.0 + 0.3 * grid   # piecewise linear kink
    delta = 2.2
    ours = jump_integral(v, grid, delta)
    for e_idx in (40, 150, 399):
        e = grid[e_idx]
        ref, err = quad(
            lambda u: np.interp(u, grid, v) * delta * math.exp(-delta * (e - u)),
            0.0, e, points=[0.4], limit=200, epsabs=1e-13, epsrel=1e-13)
        assert abs(ours[e_idx] - ref) < 1e-10
    # the blocked scan used inside the solver agrees with the reference loop
    from circuitlab.dividend import _jump_scan
    fast = _jump_scan(delta, grid[1] - grid[0], len(v))(v)
    assert np.max(np.abs(fast - ours[1:])) < 1e-12


def test_variational_terminal_condition_and_dominance():
    g = solve_variational(FIG13_PARAMS, horizon=0.5, e_max=2.0,
                          n_grid=400, dtau=2e-3)
    assert np.array_equal(g.values[0], g.grid)
    assert np.all(g.values[-1] >= g.grid - 1e-12)
    h = g.grid[1] - g.grid[0]
    slopes = np.diff(g.values[-1]) / h
    assert np.all(slopes >= 1.0 - 1e-8)


def test_variational_diffusion_only_monotone_convergence():
    p = EquityParams(mu=0.03, sigma=0.3, discount=0.12,
                     lambda1=0.0, delta1=3.0, lambda2=0.0, delta2=1.0)
    g = solve_variational(p, horizon=40.0, e_max=3.0, n_grid=600,
                          dtau=2e-3, record=10)
    excess = g.values - g.grid[None, :]
    mid = excess[:, 200]
    assert np.all(np.diff(mid) >= -1e-9)          # growing in tau
    assert abs(mid[-1] - mid[-2]) < 1e-4          # converged


def test_variational_matches_stationary_profile():
    sol = stationary_barrier(FIG13_PARAMS)
    e_max = 10.0 * sol.e_star
    g = solve_variational(FIG13_PARAMS, horizon=90.0, e_max=e_max,
                          n_grid=1000, dtau=2e-3)
    diff = np.max(np.abs(g.final() - sol.value(g.grid)))
    assert diff < 1e-3
    # free boundary settles near the analytic barrier
    assert abs(g.free_boundary[-1] - sol.e_star) < 0.02


def test_variational_free_boundary_monotone_to_barrier():
    sol = stationary_barrier(FIG13_PARAMS)
    g = solve_variational(FIG13_PARAMS, horizon=60.0, e_max=8 * sol.e_star,
                          n_grid=800, dtau=2e-3, record=12)
    fb = g.free_boundary[1:]
    assert np.all(np.diff(fb) >= -2.0 * (g.grid[1] - g.grid[0]))
    assert abs(fb[-1] - sol.e_star) < 0.03


def test_no_bracket_reported(monkeypatch):
    # a bracket that excludes the true barrier must be reported with the
    # scanned residual range rather than fabricating a root
    monkeypatch.setattr(dividend, "BARRIER_BRACKET", (1e-3, 0.05))
    monkeypatch.setattr(dividend, "BARRIER_SCAN_POINTS", 40)
    with pytest.raises(RuntimeError, match="sign change"):
        stationary_barrier(FIG13_PARAMS)
    # the stationary construction requires both jump sources
    p = EquityParams(mu=0.05, sigma=0.25, discount=0.10,
                     lambda1=0.0, delta1=3.0, lambda2=0.0, delta2=1.0)
    with pytest.raises(ValueError, match="four symbol roots"):
        stationary_barrier(p)


def test_cfl_warning():
    with pytest.warns(UserWarning, match="exceeds"):
        solve_variational(FIG13_PARAMS, horizon=0.01, e_max=1.0,
                          n_grid=2001, dtau=0.01)


@settings(deadline=None, max_examples=200)
@given(pinned=st.lists(st.booleans(), max_size=12))
def test_free_boundary_index_is_the_trailing_pinned_run(pinned):
    from circuitlab.dividend import _free_boundary_index
    v = np.concatenate([[0.0], np.cumsum(np.where(pinned, 1.0, 2.0))])
    # the start of the trailing run of pinned slopes, found from the top
    idx = len(v) - 1
    for k in range(len(pinned) - 1, -1, -1):
        if not pinned[k]:
            break
        idx = k
    assert _free_boundary_index(v, 1.0) == idx


@pytest.mark.parametrize("override, message", [
    ({"dtau": -1e-3}, "dtau"), ({"dtau": 0.0}, "dtau"), ({"dtau": math.nan}, "dtau"),
    ({"horizon": math.nan}, "horizon"), ({"horizon": math.inf}, "horizon"),
    ({"horizon": 0.0}, "horizon"), ({"e_max": math.inf}, "e_max"),
    ({"e_max": -1.0}, "e_max"), ({"n_grid": 1}, "n_grid"), ({"n_grid": 2}, "n_grid"),
    ({"horizon": 4e-4, "dtau": 1e-3}, "horizon"), ({"horizon": 0.015}, "whole"),
])
def test_variational_rejects_bad_inputs(override, message):
    run = {"horizon": 0.1, "e_max": 2.0, "n_grid": 50, "dtau": 1e-2, **override}
    with pytest.raises(ValueError, match=message):
        solve_variational(FIG13_PARAMS, **run)
