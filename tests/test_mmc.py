from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from _invalid_runs import INVALID_RUNS
from circuitlab import mmc
from circuitlab.mmc import (
    FIG8_PARAMS,
    FIG8_STATE,
    MmcParams,
    MmcState,
    UpsilonError,
    derived_quantities,
    logistic,
    mmc_drift_and_diffusion,
    net_interest,
    simulate,
)
from circuitlab.rng import RngStream

ENSEMBLE_PARAMS = replace(FIG8_PARAMS, sigma_c=0.04, sigma_k=0.02,
                          sigma_s=0.01, sigma_lambda=0.01)

# the damped fixed point stops once a step is below FIXED_POINT_TOL, which
# may take FIXED_POINT_MAX_ITER iterations where phi' approaches 1
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200


def fixed_point_upsilon(state: MmcState, params: MmcParams) -> float:
    """Investment propensity upsilon_f in (0, 1) by the damped fixed point:
    the definitional form of the root that the model takes in closed form,
    and its oracle next to scipy.special.lambertw.

    upsilon_f is the root of u = phi(u), phi = logistic(z(u)), on the stable
    branch phi'(u) < 1.  The map has at most two roots (in v = u / (1 - u)
    the condition reads ln v = 2 z, and ln v - 2 z is concave in v): the
    stable one and, above it, an unstable one with phi' > 1.  Iterating
    u <- u + (phi(u) - u) / 2 from logistic(upsilon_0) converges only to the
    stable root.  Past the fold, where no root exists, the iterate
    saturates and UpsilonError is raised, as it is when the iteration does
    not converge.
    """
    a, b = mmc._index_coeffs(state.c_r, state.d_f, state.l_f, state.k_f, params)
    u = float(logistic(params.upsilon0))
    for _ in range(FIXED_POINT_MAX_ITER):
        step = 0.5 * (float(logistic(b + a / (1.0 - u))) - u)
        u += step
        if u > mmc.UPSILON_MAX:
            raise UpsilonError(f"degenerate investment propensity: upsilon_f saturated at {u}")
        if abs(step) < FIXED_POINT_TOL:
            return u
    raise UpsilonError(f"fixed-point iteration did not converge; last step {step:.3e}")


def random_consistent_state(rng):
    """Balanced sheet in the non-degenerate propensity regime (retries states
    whose investment propensity saturates)."""
    while True:
        d_r, l_r, d_f, l_f = rng.uniform(5.0, 60.0, 4)
        k_b = l_r + l_f - d_r - d_f
        st = MmcState(
            c_r=rng.uniform(0.5, 6.0), d_r=d_r, l_r=l_r, d_f=d_f, l_f=l_f,
            k_f=rng.uniform(20.0, 80.0), k_b=k_b,
            s_w=rng.uniform(0.4, 0.9), lambda_w=rng.uniform(0.5, 0.99),
        )
        try:
            derived_quantities(st, FIG8_PARAMS)
        except UpsilonError:
            continue
        return st


def test_net_interest():
    assert net_interest(0.0, 0.0, FIG8_PARAMS) == 0.0
    assert net_interest(30.0, 20.0, FIG8_PARAMS) == pytest.approx(-0.2)
    p = MmcParams(**{**FIG8_PARAMS.__dict__, "r_d": 0.03, "r_l": 0.03})
    assert net_interest(7.0, 4.0, p) == pytest.approx(0.03 * 3.0)


def test_logistic_midpoint():
    assert logistic(0.0) == pytest.approx(0.5)


def test_upsilon_decoupled_case():
    # a = 0: the index does not depend on u, and the closed form takes no
    # division by a to give logistic(b) bit for bit
    p = MmcParams(**{**FIG8_PARAMS.__dict__,
                     "upsilon1": 0.0, "upsilon2": 0.0, "upsilon3": 0.0})
    st = FIG8_STATE
    expected = float(logistic(p.upsilon0))
    assert fixed_point_upsilon(st, p) == pytest.approx(expected, abs=1e-12)
    assert mmc._upsilon_vec(*_columns([st]), p)[0] == expected


def test_upsilon_fig8_matches_fixed_point():
    u_fp = fixed_point_upsilon(FIG8_STATE, FIG8_PARAMS)
    u_cf = float(mmc._upsilon_vec(*_columns([FIG8_STATE]), FIG8_PARAMS)[0])
    assert 0.0 < u_fp < 1.0
    assert u_cf == pytest.approx(u_fp, abs=1e-10)
    # converged value is a true fixed point of the undamped map
    z = (FIG8_PARAMS.upsilon0
         + FIG8_PARAMS.upsilon1 * FIG8_STATE.c_r
         / ((1 - u_fp) * FIG8_PARAMS.nu_f * FIG8_STATE.k_f)
         + FIG8_PARAMS.upsilon2 * FIG8_STATE.d_f / FIG8_STATE.k_f
         + FIG8_PARAMS.upsilon3 * FIG8_STATE.l_f / FIG8_STATE.k_f)
    assert float(logistic(z)) == pytest.approx(u_fp, abs=1e-11)


def test_production_identity_on_random_states():
    rng = np.random.default_rng(8)
    for _ in range(25):
        st = random_consistent_state(rng)
        d = derived_quantities(st, FIG8_PARAMS)
        lhs = d.y_f
        rhs = d.c_w + st.c_r + d.i_f
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_rentier_wealth_telescopes_to_kf():
    rng = np.random.default_rng(9)
    for _ in range(25):
        st = random_consistent_state(rng)
        d = derived_quantities(st, FIG8_PARAMS)
        assert d.sigma_r == pytest.approx(st.k_f, rel=1e-12)


def test_firm_profit_substitution():
    d = derived_quantities(FIG8_STATE, FIG8_PARAMS)
    expected = FIG8_STATE.c_r / (1.0 - d.upsilon_f) + d.ni_f
    assert d.pi_f_total == pytest.approx(expected, rel=1e-14)
    # cash-flow definitions match their distributed-profit forms
    assert d.cf_r == pytest.approx(
        d.ni_r + d.pi_f_dist + d.pi_b_dist - FIG8_STATE.c_r, rel=1e-12)
    assert d.cf_f == pytest.approx(d.pi_f_undist - d.gamma_f * d.y_f, rel=1e-12)


def test_drift_positive_cashflow_switch():
    # a high deposit rate makes CF_r > 0, so deposits grow and no new
    # rentier loans are created
    p = MmcParams(**{**FIG8_PARAMS.__dict__, "r_d": 0.08, "r_l": 0.005})
    out = mmc_drift_and_diffusion(FIG8_STATE, p)
    d = derived_quantities(FIG8_STATE, p)
    assert d.cf_r > 0
    assert out.drift["l_r"] == pytest.approx(-p.xi_delta * FIG8_STATE.l_r)
    assert out.drift["d_r"] == pytest.approx(d.cf_r, rel=1e-12)


def test_capital_capacity_indicator():
    slack = mmc_drift_and_diffusion(FIG8_STATE, FIG8_PARAMS)
    assert not slack.credit_crunch and slack.unmet_financing == 0.0
    tight = MmcState(c_r=3.0, d_r=30.0, l_r=20.0, d_f=20.0, l_f=50.0,
                     k_f=40.0, k_b=20.0)
    p_tight = MmcParams(**{**FIG8_PARAMS.__dict__, "nu_b": 0.5})
    out = mmc_drift_and_diffusion(tight, p_tight)
    assert out.credit_crunch
    d = derived_quantities(tight, p_tight)
    assert out.unmet_financing == pytest.approx(
        max(-d.cf_r, 0.0) + max(-d.cf_f, 0.0), rel=1e-12)
    # loan creation suppressed: only the default-decay term remains
    assert out.drift["l_r"] == pytest.approx(-p_tight.xi_delta * tight.l_r)
    assert out.drift["l_f"] == pytest.approx(-p_tight.xi_delta * tight.l_f)


def test_stock_flow_derivative_identity_fig8():
    out = mmc_drift_and_diffusion(FIG8_STATE, FIG8_PARAMS)
    lhs = (out.drift["l_r"] + out.drift["l_f"]
           - out.drift["d_r"] - out.drift["d_f"])
    scale = max(abs(lhs), abs(out.drift["k_b"]), 1e-30)
    assert abs(lhs - out.drift["k_b"]) / scale < 1e-12


def test_stock_flow_derivative_identity_random():
    rng = np.random.default_rng(10)
    for _ in range(40):
        st = random_consistent_state(rng)
        out = mmc_drift_and_diffusion(st, FIG8_PARAMS)
        if out.credit_crunch:
            continue
        lhs = (out.drift["l_r"] + out.drift["l_f"]
               - out.drift["d_r"] - out.drift["d_f"])
        scale = max(abs(lhs), abs(out.drift["k_b"]), 1.0)
        assert abs(lhs - out.drift["k_b"]) / scale < 1e-12


def test_simulate_requires_consistent_sheet():
    bad = MmcState(c_r=3.0, d_r=30.0, l_r=20.0, d_f=20.0, l_f=50.0,
                   k_f=40.0, k_b=19.0)
    with pytest.raises(ValueError, match="residual"):
        simulate(bad, FIG8_PARAMS, horizon=1.0, dt=0.01)


def test_simulate_rejects_invalid_inputs():
    for params in (FIG8_PARAMS, ENSEMBLE_PARAMS):
        for overrides, message in INVALID_RUNS:
            run = {"horizon": 1.0, "dt": 0.1, **overrides}
            with pytest.raises(ValueError, match=message):
                simulate(FIG8_STATE, params, **run)


@pytest.mark.parametrize("name, value, message", [
    ("upsilon1", -0.1, "upsilon1 must be non-negative"),
    ("kappa_c", -0.5, "kappa_c must be non-negative"),
    ("delta_rf", 1.5, r"delta_rf must lie in \[0, 1\]"),
    ("nu_f", 0.0, "nu_f must be positive"),
    ("nu_b", 1.0, r"nu_b must lie in \(0, 1\)"),
    ("omega", -0.005, "omega must be non-negative"),     # would run the classical drift
    ("sigma_c", -0.04, "sigma_c must be non-negative"),
    ("sigma_k", -0.02, "sigma_k must be non-negative"),
    ("sigma_s", -0.01, "sigma_s must be non-negative"),
    ("sigma_lambda", -0.01, "sigma_lambda must be non-negative"),
])
def test_params_reject_out_of_range_fields_by_name(name, value, message):
    with pytest.raises(ValueError, match=message):
        replace(FIG8_PARAMS, **{name: value})


def test_simulate_rejects_a_sheet_without_physical_assets():
    empty = MmcState(c_r=3.0, d_r=30.0, l_r=20.0, d_f=20.0, l_f=50.0, k_f=0.0, k_b=20.0)
    with pytest.raises(ValueError, match="^k_f must be positive, got 0.0"):
        simulate(empty, FIG8_PARAMS, horizon=1.0, dt=0.01)


@pytest.mark.parametrize("field, value, message", [
    ("k_b", np.nan, "k_b must be finite"),       # abs(nan) > tol once passed
    ("theta_w", np.inf, "theta_w must be finite"),
    ("n_w", np.nan, "n_w must be finite"),
    ("theta_w", -1.0, "theta_w must be positive"),
    ("n_w", 0.0, "n_w must be positive"),
])
def test_simulate_rejects_a_non_finite_or_non_positive_field_by_name(field, value, message):
    with pytest.raises(ValueError, match=message):
        simulate(replace(FIG8_STATE, **{field: value}), FIG8_PARAMS, horizon=0.1, dt=0.01)


def test_a_nan_identity_residual_is_reported(monkeypatch):
    # K_b turns NaN at the first step; the propensity does not read K_b, so
    # the run goes on, and the running maximum of the residual once dropped
    # the NaN (Python's max keeps its first argument against a NaN)
    flows = mmc._flows

    def nan_capital(x, u, p):
        drift, *rest = flows(x, u, p)
        drift[mmc.STOCK_NAMES.index("k_b")] *= np.nan
        return (drift, *rest)

    monkeypatch.setattr(mmc, "_flows", nan_capital)
    res = simulate(FIG8_STATE, FIG8_PARAMS, horizon=0.1, dt=0.01)
    assert np.isnan(res.series["k_b"][-1]).all() and np.isfinite(res.series["c_r"]).all()
    assert np.isnan(res.max_identity_residual)


def test_deterministic_fig8_run_identity_and_flags():
    # the representative scenario is meaningful up to t ~ 10; beyond that the
    # investment propensity saturates and the model leaves its valid regime
    res = simulate(FIG8_STATE, FIG8_PARAMS, horizon=10.0, dt=0.01,
                   record_stride=20)
    assert res.credit_crunch_steps == 0
    assert res.floor_hits == 0
    stocks = np.concatenate([res.series[k].ravel() for k in
                             ("d_r", "l_r", "d_f", "l_f", "k_f")])
    max_stock = stocks.max()
    assert res.max_identity_residual < 1e-8 * max_stock
    # production identity at every recorded state
    for i in range(len(res.t)):
        st = res.state_at(i)
        d = derived_quantities(st, FIG8_PARAMS)
        assert abs(d.y_f - (d.c_w + st.c_r + d.i_f)) / d.y_f < 1e-12
    # physical assets grow in the representative scenario
    assert res.series["k_f"][-1, 0] > res.series["k_f"][0, 0]


def test_mean_reverting_consumption_stationary():
    # a configuration whose consumption target C_bar stays at C_r(0):
    # zero rates and profit shares kill the income part, upsilon feedback is
    # frozen (upsilon2 = upsilon3 = 0), and xi_a is tuned so K_f is constant
    st = MmcState(c_r=3.0, d_r=30.0, l_r=20.0, d_f=20.0, l_f=50.0,
                  k_f=40.0, k_b=20.0)
    base = {**FIG8_PARAMS.__dict__, "xi_delta": 0.0, "delta_rf": 0.0,
            "delta_rb": 0.0, "r_d": 0.0, "r_l": 0.0, "sigma_c": 0.0,
            "upsilon2": 0.0, "upsilon3": 0.0, "alpha0": 0.0}
    p = MmcParams(**base)
    u = derived_quantities(st, p).upsilon_f
    p = MmcParams(**{**base,
                     "alpha1": st.c_r / (p.nu_f * st.k_f),
                     "xi_a": u * st.c_r / ((1.0 - u) * st.k_f)})
    res = simulate(st, p, horizon=5.0, dt=0.01)
    assert np.allclose(res.series["c_r"][:, 0], 3.0, atol=1e-10)
    assert np.allclose(res.series["k_f"][:, 0], 40.0, atol=1e-8)


def test_stochastic_run_positivity_and_reproducibility():
    p = MmcParams(**{**FIG8_PARAMS.__dict__, "sigma_c": 0.04, "sigma_k": 0.02,
                     "sigma_s": 0.01, "sigma_lambda": 0.01})
    a = simulate(FIG8_STATE, p, horizon=3.0, dt=0.005, paths=8,
                 stream=RngStream(123))
    b = simulate(FIG8_STATE, p, horizon=3.0, dt=0.005, paths=8,
                 stream=RngStream(123))
    for k in ("c_r", "k_f", "lambda_w"):
        assert np.array_equal(a.series[k], b.series[k])
    for k in ("d_r", "l_r", "d_f", "l_f", "k_f"):
        assert np.all(a.series[k] >= 0.0)
    assert np.all(a.series["c_r"] > 0.0)
    assert np.all((a.series["s_w"] > 0) & (a.series["s_w"] < 1))
    assert np.all((a.series["lambda_w"] > 0) & (a.series["lambda_w"] < 1))


def test_degenerate_upsilon_rejected():
    # the scalar entry points name a non-positive C_r or K_f before the solve
    for fields, message in (({"c_r": 0.0}, "^c_r must be positive"),
                            ({"k_f": -1.0}, "^k_f must be positive")):
        sheet = replace(MmcState(c_r=1.0, d_r=1, l_r=1, d_f=1, l_f=1, k_f=10, k_b=0), **fields)
        for entry in (derived_quantities, mmc_drift_and_diffusion):
            with pytest.raises(ValueError, match=message):
                entry(sheet, FIG8_PARAMS)


@pytest.mark.parametrize("entry", [derived_quantities, mmc_drift_and_diffusion])
def test_scalar_entry_points_reject_a_non_finite_field_by_name(entry):
    # they returned NaN flows before the shared field check
    for name in ("d_r", "k_b", "s_w"):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got nan"):
            entry(replace(FIG8_STATE, **{name: np.nan}), FIG8_PARAMS)


# --------------------------------------------------------------------------
# the investment-propensity root u = phi(u), phi = logistic(z(u))

@pytest.mark.parametrize("params, paths", [(FIG8_PARAMS, 1), (ENSEMBLE_PARAMS, 2)],
                         ids=["fig8", "ensemble"])
def test_scalar_entry_points_take_the_simulators_propensity(params, paths):
    # one solver: on every recorded row the scalar entry points return the
    # propensity the simulator recorded for that path, bit for bit
    res = simulate(FIG8_STATE, params, horizon=10.0, dt=0.01, paths=paths,
                   stream=RngStream(12), record_stride=100)
    for i in range(len(res.t)):
        for path in range(paths):
            st = res.state_at(i, path)
            assert derived_quantities(st, params).upsilon_f == res.upsilon_f[i, path]
            assert mmc_drift_and_diffusion(st, params).upsilon_f == res.upsilon_f[i, path]


def _phi_and_slope(u, st_, p):
    """phi(u) and phi'(u) in definitional form, for a float or an array u."""
    k_f = st_.k_f
    z = (p.upsilon0 + p.upsilon1 * st_.c_r / ((1.0 - u) * p.nu_f * k_f)
         + p.upsilon2 * st_.d_f / k_f + p.upsilon3 * st_.l_f / k_f)
    phi = logistic(z)
    dz_du = p.upsilon1 * st_.c_r / (p.nu_f * k_f * (1.0 - u) ** 2)
    return phi, 2.0 * phi * (1.0 - phi) * dz_du


def _columns(states):
    return [np.array([getattr(s, k) for s in states]) for k in ("c_r", "d_f", "l_f", "k_f")]


@st.composite
def sheets(draw):
    d_r, l_r, d_f, l_f = (draw(st.floats(5.0, 60.0)) for _ in range(4))
    return MmcState(c_r=draw(st.floats(0.5, 6.0)), d_r=d_r, l_r=l_r, d_f=d_f, l_f=l_f,
                    k_f=draw(st.floats(20.0, 80.0)), k_b=l_r + l_f - d_r - d_f)


upsilon_params = st.builds(
    lambda u0, u1, u2, u3: replace(FIG8_PARAMS, upsilon0=u0, upsilon1=u1,
                                   upsilon2=u2, upsilon3=u3),
    st.floats(-3.0, 0.5), st.floats(0.05, 3.0), st.floats(0.0, 1.0), st.floats(-1.0, 0.0))


def _fold_terms(s, p):
    """(a, b, ln(-x) + 1) of a sheet, with x = -2a e^(2(a+b)): the map has a
    root exactly when the last is at most 0."""
    a = p.upsilon1 * s.c_r / (p.nu_f * s.k_f)
    b = p.upsilon0 + p.upsilon2 * s.d_f / s.k_f + p.upsilon3 * s.l_f / s.k_f
    return a, b, np.log(2.0 * a) + 2.0 * a + 2.0 * b + 1.0


@settings(deadline=None, max_examples=150)
@given(states=st.lists(sheets(), min_size=1, max_size=4), p=upsilon_params)
def test_upsilon_closed_form_property(states, p):
    """The closed-form solve raises exactly when some path is past the fold.
    Otherwise it returns, on every path, the stable root that
    scipy.special.lambertw gives through v = u / (1 - u) = -W0(x) / (2a),
    and the damped fixed point wherever that converges; each root solves
    u = phi(u) with phi' < 1."""
    terms = [_fold_terms(s, p) for s in states]
    if any(gap > 0.0 for _, _, gap in terms):
        with pytest.raises(UpsilonError, match="degenerate investment propensity"):
            mmc._upsilon_vec(*_columns(states), p)
        return
    u = mmc._upsilon_vec(*_columns(states), p)
    for s, ui, (a, b, _) in zip(states, u, terms):
        v = -lambertw(-2.0 * a * np.exp(2.0 * (a + b))).real / (2.0 * a)
        assert abs(ui - v / (1.0 + v)) < 1e-10
        try:
            assert abs(ui - fixed_point_upsilon(s, p)) < 1e-10
        except UpsilonError:
            pass
        phi, slope = _phi_and_slope(ui, s, p)
        assert abs(phi - ui) < 1e-12
        assert slope < 1.0


@settings(deadline=None, max_examples=100)
@given(s=sheets(), p=upsilon_params)
def test_upsilon_root_lies_below_unstable_root(s, p):
    """Where the map has two roots, the solve returns the lower one: the
    upper root, bracketed on a grid and bisected, has phi' > 1 and is the one
    that the branch W-1 gives."""
    def g(u):
        return _phi_and_slope(u, s, p)[0] - u

    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    neg = np.flatnonzero(g(grid) < 0.0)
    assume(neg.size > 0 and neg[-1] + 1 < grid.size)
    lo, hi = grid[neg[-1]], grid[neg[-1] + 1]     # g(lo) < 0 < g(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    assume(_phi_and_slope(hi, s, p)[1] > 1.0 + 1e-6)
    a, b, _ = _fold_terms(s, p)
    v = -lambertw(-2.0 * a * np.exp(2.0 * (a + b)), -1).real / (2.0 * a)
    assert v / (1.0 + v) == pytest.approx(hi, abs=1e-8)
    u = mmc._upsilon_vec(*_columns([s]), p)[0]
    phi, slope = _phi_and_slope(u, s, p)
    assert abs(phi - u) < 1e-12 and slope < 1.0
    assert u < lo


@settings(deadline=None, max_examples=100)
@given(s=sheets(), p=upsilon_params, margin=st.floats(1e-3, 3.0))
def test_upsilon_without_root_is_degenerate(s, p, margin):
    """Past the fold the map has no root and the solve raises the named error.

    With z(u) = b + a / (1 - u) and v = u / (1 - u), u = phi(u) reads
    ln v = 2b + 2a + 2av, whose gap is concave in v and peaks at v = 1/(2a):
    there is no root exactly when ln(2a) + 2a + 2b + 1 > 0.  upsilon0 is set
    `margin` past that fold; a dense grid confirms g = phi - u > 0, and the
    damped fixed point finds no root either."""
    a = p.upsilon1 * s.c_r / (p.nu_f * s.k_f)
    b = (margin - np.log(2.0 * a) - 2.0 * a - 1.0) / 2.0
    p = replace(p, upsilon0=b - p.upsilon2 * s.d_f / s.k_f - p.upsilon3 * s.l_f / s.k_f)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    assert np.all(_phi_and_slope(grid, s, p)[0] - grid > 0.0)
    with pytest.raises(UpsilonError, match="degenerate investment propensity"):
        mmc._upsilon_vec(*_columns([s]), p)
    with pytest.raises(UpsilonError):
        fixed_point_upsilon(s, p)


@pytest.mark.parametrize("upsilon0, upsilon1", [(400.0, 1.1), (0.0, 1e300), (-1e3, 1e300)])
def test_upsilon_huge_index_raises_the_fold_error(upsilon0, upsilon1):
    # e^(2(a+b)) overflows here; the fold test reads ln(-x) instead, so the
    # solve raises the named error with no overflow warning and no NaN
    p = replace(FIG8_PARAMS, upsilon0=upsilon0, upsilon1=upsilon1)
    with pytest.raises(UpsilonError, match=r"degenerate investment propensity on 2 path\(s\)"):
        mmc._upsilon_vec(*_columns([FIG8_STATE, FIG8_STATE]), p)


def test_upsilon_saturated_without_fold_raises():
    # a = 0 has no fold, but logistic(b) rounds to within 1e-9 of 1 for b
    # above about 10.4: the propensity is degenerate there too
    p = replace(FIG8_PARAMS, upsilon0=15.0, upsilon1=0.0)
    with pytest.raises(UpsilonError, match="degenerate investment propensity"):
        mmc._upsilon_vec(*_columns([FIG8_STATE]), p)


def test_stochastic_fig8_batch_reaches_horizon():
    # a batch that reaches phi' ~ 0.8, where a damped fixed point contracts
    # by only ~0.9 per round and runs out of 200 iterations
    res = simulate(FIG8_STATE, ENSEMBLE_PARAMS, horizon=10.0, dt=0.01, paths=2,
                   stream=RngStream(12), record_stride=100)
    assert res.t[-1] == pytest.approx(10.0)
    assert res.credit_crunch_steps == 0
    stocks = np.concatenate([res.series[k].ravel() for k in
                             ("d_r", "l_r", "d_f", "l_f", "k_f")])
    assert res.max_identity_residual < 1e-8 * stocks.max()


def test_fig8_logistic_evaluations_per_step(monkeypatch):
    # the closed form evaluates the logistic once per solve
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return logistic(x)

    monkeypatch.setattr(mmc, "logistic", counted)
    simulate(FIG8_STATE, FIG8_PARAMS, horizon=10.0, dt=0.01, record_stride=100)
    assert calls == 1000 + 1


def test_fig8_solves_upsilon_once_per_step(monkeypatch):
    # one solve per Euler step and one for the last recorded row; the other
    # rows keep the solve of the step leaving them
    calls = 0
    solve = mmc._upsilon_vec

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(mmc, "_upsilon_vec", counted)
    for stride in (1, 100):
        calls = 0
        simulate(FIG8_STATE, FIG8_PARAMS, horizon=10.0, dt=0.01, record_stride=stride)
        assert calls == 1000 + 1
