import numpy as np
import pytest

from circuitlab.rng import (
    CorrelationError,
    CorrelationMatrix,
    JumpSpec,
    PathNoise,
    RngStream,
    euler_step,
    gaussian_increments,
)
from circuitlab.network import _draw_jump_events


def test_stream_reproducible():
    a = RngStream(1234, 7).generator().standard_normal(100)
    b = RngStream(1234, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_streams_differ_by_index():
    a = RngStream(1234, 0).generator().standard_normal(100)
    b = RngStream(1234, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_path_noise_independent_of_total_count():
    # path j's draws must not change when more paths are added
    small = PathNoise(RngStream(9), n_paths=3).normals(50, 2)
    big = PathNoise(RngStream(9), n_paths=8).normals(50, 2)
    assert np.array_equal(small, big[:, :, :3])


def test_gaussian_identity_variance():
    corr = CorrelationMatrix(np.eye(1))
    draws = gaussian_increments(RngStream(42), corr, dt=1.0, size=10**6)
    assert abs(draws.var() - 1.0) < 0.01


def test_gaussian_zero_cross_correlation():
    corr = CorrelationMatrix.from_scalar(0.0, 2)
    draws = gaussian_increments(RngStream(43), corr, dt=1.0, size=10**6)
    r = np.corrcoef(draws.T)[0, 1]
    assert abs(r) < 3.0 / np.sqrt(10**6)


def test_gaussian_covariance_rho_half():
    # cov = rho * dt = 0.5 * 0.25 = 0.125; 3 MC standard errors of the
    # sample covariance of bivariate normals
    n = 10**6
    corr = CorrelationMatrix.from_scalar(0.5, 2)
    draws = gaussian_increments(RngStream(44), corr, dt=0.25, size=n)
    cov = np.cov(draws.T)[0, 1]
    # var of sample cov of (X,Y) ~ (var_x*var_y + cov^2)/n
    se = np.sqrt((0.25 * 0.25 + 0.125**2) / n)
    assert abs(cov - 0.125) < 3 * se


def test_non_psd_reports_pivot():
    m = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(CorrelationError, match="pivot 2"):
        CorrelationMatrix(m)


def test_degenerate_psd_allowed():
    # perfectly correlated pair is PSD with a zero pivot
    corr = CorrelationMatrix.from_scalar(1.0, 2)
    draws = gaussian_increments(RngStream(5), corr, dt=1.0, size=1000)
    assert np.allclose(draws[:, 0], draws[:, 1])


def test_jump_spec_validation():
    with pytest.raises(ValueError, match="negative"):
        JumpSpec(2, {frozenset([0]): -0.1}, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="theta"):
        JumpSpec(2, {frozenset([0]): 0.1}, np.array([1.0, -1.0]))


def _jump_events(seed, spec, horizon, dt, width):
    """The network simulator's jump draws, as (rows, banks, amps, steps)."""
    events = _draw_jump_events(PathNoise(RngStream(seed), width), spec, horizon, dt, width)
    steps = sorted(events)
    cols = [np.concatenate([events[k][c] for k in steps]) for c in range(3)]
    step_of = np.repeat(steps, [events[k][0].size for k in steps])
    return (*cols, step_of)


def _counts(spec, rows, banks, width):
    """Arrivals per (path, bank) over the whole horizon."""
    out = np.zeros((width, spec.n_banks), dtype=np.int64)
    np.add.at(out, (rows, banks), 1)
    return out


def test_compensator_matches_monte_carlo():
    # kappa = E[e^J - 1] = -1/(theta+1) for negative-exponential J
    theta = 2.5
    spec = JumpSpec(1, {frozenset([0]): 1.0}, np.array([theta]))
    _, _, amps, _ = _jump_events(7, spec, horizon=100.0, dt=1.0, width=1000)
    assert amps.size > 90_000 and np.all(amps <= 0.0)
    draws = np.exp(amps) - 1.0
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - spec.compensators[0]) < 3 * se
    assert spec.compensators[0] == pytest.approx(-1.0 / 3.5)


def test_common_shock_always_joint():
    # every common-shock arrival hits both banks at the same step and path
    spec = JumpSpec(2, {frozenset([0, 1]): 0.1}, np.array([1.0, 1.0]))
    rows, banks, _, steps = _jump_events(11, spec, horizon=10.0, dt=0.5, width=2000)
    hits = [sorted(zip(rows[banks == b], steps[banks == b])) for b in (0, 1)]
    assert len(hits[0]) > 1000
    assert hits[0] == hits[1]


def test_singleton_subsets_uncorrelated():
    spec = JumpSpec(
        2, {frozenset([0]): 0.3, frozenset([1]): 0.3}, np.array([1.0, 1.0])
    )
    n = 20000
    rows, banks, _, _ = _jump_events(12, spec, horizon=1.0, dt=1.0, width=n)
    r = np.corrcoef(_counts(spec, rows, banks, n).T)[0, 1]
    assert abs(r) < 3.0 / np.sqrt(n)


def test_marshall_olkin_projection():
    # lambda_1 = lambda_{12} + lambda_{1} = 0.07; mean count over horizon 10 is 0.7
    spec = JumpSpec(
        2, {frozenset([0, 1]): 0.05, frozenset([0]): 0.02}, np.array([1.0, 1.0])
    )
    assert spec.bank_intensities()[0] == pytest.approx(0.07)
    assert spec.bank_intensities()[1] == pytest.approx(0.05)
    n, horizon = 20000, 10.0
    rows, banks, _, _ = _jump_events(13, spec, horizon=horizon, dt=0.5, width=n)
    totals = _counts(spec, rows, banks, n)
    se = totals.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(totals.mean(axis=0) - spec.bank_intensities() * horizon) < 3 * se)


def test_euler_identity():
    state = np.array([1.0, 2.0])
    out = euler_step(state, np.zeros(2), None, None, dt=0.1)
    assert np.array_equal(out, state)


def test_euler_deterministic_drift():
    out = euler_step(np.array([1.0]), np.array([3.0]), None, None, dt=0.5)
    assert out[0] == pytest.approx(2.5)


def test_euler_rejects_nonfinite():
    with pytest.raises(FloatingPointError, match="drift"):
        euler_step(np.array([1.0]), np.array([np.nan]), None, None, dt=0.1)


def test_euler_gbm_terminal_mean():
    # E[S_T] = exp(mu*T); Euler bias at this dt is far below MC noise
    mu, sigma, horizon, dt, n = 0.05, 0.2, 1.0, 0.01, 10**5
    gen = RngStream(99).generator()
    s = np.ones(n)
    steps = int(horizon / dt)
    sqdt = np.sqrt(dt)
    for _ in range(steps):
        dw = gen.standard_normal(n) * sqdt
        s = euler_step(s, mu * s, sigma * s, dw, dt)
    se = s.std() / np.sqrt(n)
    assert abs(s.mean() - np.exp(mu * horizon)) < 3 * se
