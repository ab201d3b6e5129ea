import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.linalg.blas import dtbsv

from circuitlab import dividend
from circuitlab.dividend import (
    FIG13_PARAMS,
    EquityParams,
    SymbolCoefficients,
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


def jump_integral(v: np.ndarray, grid: np.ndarray, delta: float) -> np.ndarray:
    """I(E) = delta * int_0^E V(u) e^{-delta (E-u)} du for piecewise-linear V,
    via the exact per-cell exponential update of I' = delta (V - I), one cell
    at a time: the Python-loop reference for `dividend._jump_scans`."""
    h = grid[1] - grid[0]
    decay, w0, w1 = dividend._cell_weights(delta, h)
    out = np.empty_like(v)
    out[0] = 0.0
    slope = np.diff(v) / h
    acc = 0.0
    for k in range(len(v) - 1):
        acc = acc * decay + v[k] * w0 + slope[k] * w1
        out[k + 1] = acc
    return out


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
    # each row of the stacked scan used inside the solver agrees with the
    # reference loop
    h = grid[1] - grid[0]
    deltas = (delta, 0.7, delta)
    rows = dividend._jump_scans(deltas, h, len(v))(v)
    assert rows.shape == (len(deltas), len(v) - 1)
    for row, d in zip(rows, deltas):
        assert np.max(np.abs(row - jump_integral(v, grid, d)[1:])) < 1e-12


def test_variational_terminal_condition_and_dominance():
    g = solve_variational(FIG13_PARAMS, horizon=0.5, e_max=2.0,
                          n_grid=400, dtau=2e-3)
    assert np.array_equal(g.values[0], g.grid)
    assert np.all(g.values[-1] >= g.grid - 1e-12)
    h = g.grid[1] - g.grid[0]
    slopes = np.diff(g.values[-1]) / h
    assert np.all(slopes >= 1.0 - 1e-8)


def test_variational_diffusion_only_monotone_convergence(monkeypatch):
    monkeypatch.setattr(dividend, "RECORD_SLICES", 10)
    p = EquityParams(mu=0.03, sigma=0.3, discount=0.12,
                     lambda1=0.0, delta1=3.0, lambda2=0.0, delta2=1.0)
    g = solve_variational(p, horizon=40.0, e_max=3.0, n_grid=600, dtau=2e-3)
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


def test_variational_free_boundary_monotone_to_barrier(monkeypatch):
    monkeypatch.setattr(dividend, "RECORD_SLICES", 12)
    sol = stationary_barrier(FIG13_PARAMS)
    g = solve_variational(FIG13_PARAMS, horizon=60.0, e_max=8 * sol.e_star,
                          n_grid=800, dtau=2e-3)
    fb = g.free_boundary[1:]
    assert np.all(np.diff(fb) >= -2.0 * (g.grid[1] - g.grid[0]))
    assert abs(fb[-1] - sol.e_star) < 0.03


def _jump_scan(delta, h, n_grid):
    """The march's jump scan as it was before the two sources were stacked:
    one BLAS forward substitution per source, on its own bidiagonal band
    with a diagonal of ones that dtbsv divides by."""
    decay, w0, w1 = dividend._cell_weights(delta, h)
    band = np.ones((2, n_grid - 1), order="F")
    band[1] = -decay

    def scan(v, slope):
        c = v[:-1] * w0
        c += slope * w1
        return dtbsv(1, band, c, lower=1, overwrite_x=1)

    return scan


def _scipy_march(params, horizon, e_max, n_grid, dtau):
    """solve_variational as it was before the matrix was factored once and
    the jump scans were stacked: the same march, with
    scipy.linalg.solve_banded eliminating the band at every step and one
    scan per jump source.  Returns the recorded taus, slices and free
    boundaries."""
    c = SymbolCoefficients.from_params(params)
    grid = np.linspace(0.0, e_max, n_grid)
    h = grid[1] - grid[0]
    n_steps = round(horizon / dtau)
    v = grid.copy()
    a_lo = c.a2 / h**2 - c.a1 / (2.0 * h)
    a_mid = -2.0 * c.a2 / h**2 + c.a0
    a_hi = c.a2 / h**2 + c.a1 / (2.0 * h)
    half = 0.5 * dtau
    banded = np.zeros((3, n_grid))
    banded[0, 2:] = -half * a_hi
    banded[1, 1:-1] = 1.0 - half * a_mid
    banded[1, [0, -1]] = 1.0
    banded[2, :-2] = -half * a_lo
    banded[2, -2] = -1.0
    scan1 = _jump_scan(params.delta1, h, n_grid)
    scan2 = _jump_scan(params.delta2, h, n_grid)
    ramp = h * np.arange(n_grid)
    work = np.empty(n_grid - 2)
    rec_every = max(n_steps // dividend.RECORD_SLICES, 1)
    taus, slices = [0.0], [v.copy()]
    fbs = [float(grid[dividend._free_boundary_index(v, h)])]
    for step in range(1, n_steps + 1):
        slope = np.diff(v) / h
        jumps = scan1(v, slope)
        jumps *= params.lambda1
        i2 = scan2(v, slope)
        i2 *= params.lambda2
        jumps += i2
        jumps *= dtau
        rhs = np.empty(n_grid)
        mid = rhs[1:-1]
        np.multiply(v[:-2], a_lo, out=mid)
        mid += np.multiply(v[1:-1], a_mid, out=work)
        mid += np.multiply(v[2:], a_hi, out=work)
        mid *= half
        mid += v[1:-1]
        mid += jumps[:-1]
        rhs[0] = 0.0
        rhs[-1] = h
        v = scipy.linalg.solve_banded((1, 1), banded, rhs, overwrite_b=True)
        v -= ramp
        np.maximum.accumulate(v, out=v)
        v += ramp
        if step % rec_every == 0 or step == n_steps:
            taus.append(step * dtau)
            slices.append(v.copy())
            fbs.append(float(grid[dividend._free_boundary_index(v, h)]))
    return np.array(taus), np.array(slices), np.array(fbs)


def test_prefactored_march_matches_the_scipy_march_byte_for_byte():
    run = dict(horizon=0.5, e_max=2.0, n_grid=400, dtau=2e-3)
    g = solve_variational(FIG13_PARAMS, **run)
    taus, slices, fbs = _scipy_march(FIG13_PARAMS, **run)
    assert g.tau.tobytes() == taus.tobytes()
    assert g.values.tobytes() == slices.tobytes()
    assert g.free_boundary.tobytes() == fbs.tobytes()


# a positive intensity or none, as the march treats an inactive source alike
intensities = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


@settings(deadline=None, max_examples=100)
@given(mu=st.floats(-5.0, 5.0), sigma=st.floats(0.01, 2.0),
       discount=st.floats(1e-3, 1.0), lambda1=intensities, delta1=st.floats(0.1, 10.0),
       lambda2=intensities, delta2=st.floats(0.1, 10.0), n_grid=st.integers(3, 200),
       e_max=st.floats(0.1, 20.0), dtau=st.floats(1e-4, 0.1), n_steps=st.integers(1, 30))
def test_march_matches_the_scipy_march_byte_for_byte(mu, sigma, discount, lambda1, delta1,
                                                     lambda2, delta2, n_grid, e_max, dtau,
                                                     n_steps):
    # the stacked jump scan and the factored solve do the arithmetic of one
    # scan per source and a fresh elimination per step, over random params
    params = EquityParams(mu=mu, sigma=sigma, discount=discount, lambda1=lambda1,
                          delta1=delta1, lambda2=lambda2, delta2=delta2)
    run = dict(horizon=n_steps * dtau, e_max=e_max, n_grid=n_grid, dtau=dtau)
    try:
        taus, slices, fbs = _scipy_march(params, **run)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular Crank-Nicolson"):
            solve_variational(params, **run)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # the CFL warning
        g = solve_variational(params, **run)
    assert g.tau.tobytes() == taus.tobytes()
    assert g.values.tobytes() == slices.tobytes()
    assert g.free_boundary.tobytes() == fbs.tobytes()


def test_march_solves_once_per_step(monkeypatch):
    calls = []
    original = dividend.solve_banded

    def counting(factored, b):
        calls.append(b.size)
        return original(factored, b)

    monkeypatch.setattr(dividend, "solve_banded", counting)
    for n_steps in (1, 7, 250):
        calls.clear()
        solve_variational(FIG13_PARAMS, horizon=n_steps * 2e-3, e_max=2.0,
                          n_grid=120, dtau=2e-3)
        assert calls == [120] * n_steps


# drifts up to |mu| = 5 against small sigma cost the band its diagonal
# dominance, so dgttrf swaps rows in some draws
@settings(deadline=None, max_examples=150)
@given(mu=st.floats(-5.0, 5.0), sigma=st.floats(0.01, 2.0),
       discount=st.floats(1e-3, 1.0), lambda1=st.floats(0.0, 2.0),
       lambda2=st.floats(0.0, 2.0), n_grid=st.integers(3, 400),
       e_max=st.floats(0.1, 20.0), dtau=st.floats(1e-5, 1.0), data=st.data())
def test_prefactored_solve_matches_scipy_solve_banded(mu, sigma, discount, lambda1,
                                                      lambda2, n_grid, e_max, dtau, data):
    params = EquityParams(mu=mu, sigma=sigma, discount=discount, lambda1=lambda1,
                          delta1=3.0, lambda2=lambda2, delta2=1.0)
    c = SymbolCoefficients.from_params(params)
    h = e_max / (n_grid - 1)
    band = dividend._implicit_band(c.a2 / h**2 - c.a1 / (2.0 * h),
                                   -2.0 * c.a2 / h**2 + c.a0,
                                   c.a2 / h**2 + c.a1 / (2.0 * h), 0.5 * dtau, n_grid)
    rhs = data.draw(arrays(np.float64, n_grid, elements=st.floats(-1e3, 1e3)))
    try:
        expected = scipy.linalg.solve_banded((1, 1), band, rhs)
    except np.linalg.LinAlgError:
        # some valid inputs make the band exactly singular; both refuse it
        with pytest.raises(np.linalg.LinAlgError, match="singular Crank-Nicolson"):
            dividend._factor(band)
        return
    got = dividend.solve_banded(dividend._factor(band), rhs.copy())
    assert got.tobytes() == expected.tobytes()


def test_prefactored_solve_names_its_errors():
    band = dividend._implicit_band(1.0, -2.5, 1.0, 1e-3, 5)
    rhs = np.ones(5)
    rhs[2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        dividend.solve_banded(dividend._factor(band), rhs)
    # with h = 0.5 the middle row reads (1.5, 3.5, -3.5) and the top row
    # (0, -1, 1): the 3-point matrix is singular for these valid inputs
    p = EquityParams(mu=5.0, sigma=1.0, discount=1.0,
                     lambda1=0.0, delta1=3.0, lambda2=0.0, delta2=1.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular Crank-Nicolson"):
        solve_variational(p, horizon=1.0, e_max=1.0, n_grid=3, dtau=1.0)


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
    ({"n_grid": 50.0}, "n_grid must be an integer of at least 3"),
    ({"n_grid": math.inf}, "n_grid must be an integer of at least 3"),
])
def test_variational_rejects_bad_inputs(override, message):
    run = {"horizon": 0.1, "e_max": 2.0, "n_grid": 50, "dtau": 1e-2, **override}
    with pytest.raises(ValueError, match=message):
        solve_variational(FIG13_PARAMS, **run)
