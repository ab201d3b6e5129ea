from dataclasses import replace

import numpy as np
import pytest

from _invalid_runs import INVALID_RUNS
from circuitlab import keen
from circuitlab.goodwin import GoodwinState, drift
from circuitlab.keen import (
    FIG4_PARAMS,
    FIG5_PARAMS,
    FIG6_PARAMS,
    KeenParams,
    KeenState,
    goodwin_equivalent,
    keen_drift,
    profit_function,
    simulate,
)
from circuitlab.rng import RngStream


def test_profit_function_fig4_value():
    # q*x + r = 20*0.25 - 5 = 0, so f = p + 1
    assert profit_function(0.25, FIG4_PARAMS) == pytest.approx(0.9935, abs=1e-12)


def test_profit_function_monotone():
    xs = np.linspace(-1.0, 1.0, 201)
    fx = profit_function(xs, FIG4_PARAMS)
    assert np.all(np.diff(fx) > 0)


def test_profit_function_exponent_cap():
    with pytest.warns(UserWarning, match="capped"):
        v = profit_function(1e6, FIG4_PARAMS)
    assert np.isfinite(v)


def test_leverage_free_gamma_drift():
    # Gamma_f = 0 makes the leverage drift nu_f*(f(s_f) - s_f)
    st = KeenState(0.75, 0.8, 0.0)
    p = FIG4_PARAMS
    _, _, dg = keen_drift(st, p)
    expected = p.nu_f * (profit_function(0.25, p) - 0.25)
    assert dg == pytest.approx(expected, rel=1e-14)


def test_fig4_drift_direct_arithmetic():
    # frozen from direct evaluation of the printed equations
    st = KeenState(0.75, 0.8, 0.1)
    p = FIG4_PARAMS
    fx = p.p + np.exp(p.q * (0.25 - p.r_l * 0.1 / p.nu_f) + p.r)
    ds_exp = -(p.a - p.b * 0.8) * 0.75
    dl_exp = (p.nu_f * fx - p.c) * 0.8
    dg_exp = (p.r_l - p.nu_f * fx + p.d) * 0.1 + p.nu_f * (fx - 0.25)
    ds, dl, dg = keen_drift(st, p)
    assert (ds, dl, dg) == pytest.approx((ds_exp, dl_exp, dg_exp), rel=1e-14)
    assert np.isfinite([ds, dl, dg]).all()
    assert dg > 0  # leverage grows at this state


def test_regularized_with_nu_reduces_at_omega_zero():
    p = KeenParams(a=0.225, b=0.2, c=0.075, d=0.03, r_l=0.03, nu_f=0.1,
                   p=-0.0065, q=20.0, r=-5.0, omega=0.0)
    st = KeenState(0.6, 0.7, 0.4)
    # omega = 0 is the classical drift, which keeps the nu_f factor either way
    assert keen_drift(st, p, with_nu_factor=False) == keen_drift(st, p)


def test_nu_factor_variants_differ():
    st = KeenState(0.6, 0.7, 0.4)
    with_nu = keen_drift(st, FIG5_PARAMS, with_nu_factor=True)
    without = keen_drift(st, FIG5_PARAMS, with_nu_factor=False)
    assert with_nu[1] != without[1]
    assert with_nu[0] == without[0] and with_nu[2] == without[2]


def test_reduction_to_goodwin_with_identity_profit(monkeypatch):
    # f = id, Gamma_f = 0, r_L = 0 collapses to the classical pair
    monkeypatch.setattr(keen, "profit_function", lambda x, params: x)
    p = KeenParams(a=0.225, b=0.2, c=0.075, d=0.03, r_l=0.0, nu_f=0.1,
                   p=-0.0065, q=20.0, r=-5.0)
    gp = goodwin_equivalent(p)
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, lam = rng.uniform(0.05, 0.95, 2)
        st = KeenState(s, lam, 0.0)
        ds, dl, _ = keen_drift(st, p)
        gds, gdl = drift(GoodwinState(s, lam), gp)
        assert (ds, dl) == pytest.approx((gds, gdl), rel=1e-12)


def test_boundary_rejected_in_regularized_mode():
    with pytest.raises(ValueError, match="interior"):
        keen_drift(KeenState(1.0, 0.5, 0.1), FIG5_PARAMS)


@pytest.mark.parametrize("name", ["omega", "sigma_s", "sigma_lambda"])
def test_params_reject_a_negative_omega_or_volatility_by_name(name):
    # omega > 0 selects the regularized drift: a negative one once ran the
    # classical drift without a word
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -0.005"):
        replace(FIG5_PARAMS, **{name: -0.005})


def test_invalid_inputs():
    for params in (FIG4_PARAMS, FIG6_PARAMS):
        for overrides, message in INVALID_RUNS:
            run = {"horizon": 1.0, "dt": 0.1, **overrides}
            with pytest.raises(ValueError, match=message):
                simulate(KeenState(0.5, 0.5, 0.1), params, **run)


def test_classical_run_violates_unit_square():
    res = simulate(KeenState(0.75, 0.95, 0.3), FIG4_PARAMS,
                   horizon=100.0, dt=1e-3, paths=1, record_stride=100)
    assert res.lambda_range[1] > 1.0


def test_regularized_run_confined_leverage_grows():
    res = simulate(KeenState(0.75, 0.95, 0.3), FIG5_PARAMS,
                   horizon=100.0, dt=1e-3, paths=1, record_stride=100)
    assert res.lambda_range[1] < 1.0 and res.lambda_range[0] > 0.0
    assert res.s_range[1] < 1.0 and res.s_range[0] > 0.0
    assert res.gamma_f.max() > res.gamma_f[0, 0]


def test_stochastic_run_confined():
    res = simulate(KeenState(0.75, 0.8, 0.1), FIG6_PARAMS,
                   horizon=20.0, dt=1e-3, paths=16,
                   stream=RngStream(31), record_stride=50)
    assert res.lambda_range[1] < 1.0 and res.s_range[1] < 1.0
    assert res.lambda_range[0] > 0.0 and res.s_range[0] > 0.0
    assert res.clamp_events < 1e-3 * res.total_steps


def test_minsky_event_detection():
    # a forced blow-up: huge q makes f explode and leverage run away
    p = KeenParams(a=0.225, b=0.2, c=0.075, d=0.03, r_l=0.2, nu_f=0.1,
                   p=0.5, q=30.0, r=1.0)
    res = simulate(KeenState(0.6, 0.8, 5.0), p, horizon=50.0, dt=1e-2, paths=1)
    assert res.minsky_paths == 1
    assert np.isfinite(res.minsky_times[0])
    # frozen after the event: leverage does not keep integrating
    assert res.gamma_f[-1, 0] == res.gamma_f[np.searchsorted(
        res.t, res.minsky_times[0]) + 1, 0]


def test_simulate_reproducible():
    a = simulate(KeenState(0.7, 0.9, 0.2), FIG6_PARAMS, 1.0, 1e-3,
                 paths=3, stream=RngStream(77))
    b = simulate(KeenState(0.7, 0.9, 0.2), FIG6_PARAMS, 1.0, 1e-3,
                 paths=3, stream=RngStream(77))
    assert np.array_equal(a.gamma_f, b.gamma_f)
