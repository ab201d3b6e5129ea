import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _invalid_runs import INVALID_RUNS
from circuitlab import balance
from circuitlab.balance import (
    Controls,
    FlowParams,
    FlowState,
    RegWeights,
    cashflow_objective,
    constant_control_search,
    constraints_report,
    evolve,
)
from circuitlab.rng import RngStream

BASE = FlowParams(lam=0.2, mu=0.25, nu=0.05, xi=0.03, alpha=0.15, beta=0.01,
                  r=0.06, zeta=0.02, sigma=0.2, discount=0.04, t_lag=1.0)
ZERO_RATES = FlowParams(lam=0.0, mu=0.0, nu=0.0, xi=0.0, alpha=0.0, beta=0.0,
                        r=0.0, zeta=0.0, sigma=0.0, discount=0.05, t_lag=1.0)
START = FlowState(x=100.0, i=20.0, c=10.0, d=90.0, y=25.0, e=15.0)


def test_zero_everything_is_stationary():
    traj = evolve(START, ZERO_RATES, Controls(), horizon=2.0, dt=0.01)
    assert np.allclose(traj.x, 100.0) and np.allclose(traj.c, 10.0)
    assert np.allclose(traj.e, 15.0)
    assert traj.max_consistency_residual == 0.0


def test_loan_decay_converges_to_closed_form():
    p = FlowParams(lam=0.5, mu=0.0, nu=0.0, xi=0.0, alpha=0.0, beta=0.0,
                   r=0.0, zeta=0.0, sigma=0.0, discount=0.05)
    horizon = 2.0
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = evolve(START, p, Controls(), horizon, dt)
        errs.append(abs(traj.x[-1] - 100.0 * math.exp(-0.5 * horizon)))
    # first-order Euler: halving dt halves the defect against X0 e^{-lam t}
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.05)


def test_balance_identity_random_controls():
    rng = np.random.default_rng(12)
    for size in (None,) * 6 + (200,):
        # six single runs, then one batch of 200 controls
        ctrl = Controls(phi=rng.uniform(0, 5, size), psi=rng.uniform(0, 3, size),
                        omega=rng.uniform(0, 2, size), pi=rng.uniform(0, 4, size),
                        delta=rng.uniform(-1, 1, size))
        traj = evolve(START, BASE, ctrl, horizon=3.0, dt=1e-3)
        scale = np.min(np.max(traj.x + traj.i + traj.c, axis=-1))
        assert traj.max_consistency_residual < 1e-10 * scale


def test_balance_identity_stochastic():
    traj = evolve(START, BASE, Controls(phi=2.0, delta=0.5), horizon=2.0,
                  dt=1e-3, stream=RngStream(3))
    scale = np.max(traj.x + traj.i + traj.c)
    assert traj.max_consistency_residual < 1e-10 * scale
    # a batch shares one normal per step, so each row is its control's run alone
    phis = np.array([2.0, 0.5, 4.0])
    batch = evolve(START, BASE, Controls(phi=phis, delta=0.5), horizon=2.0,
                   dt=1e-3, stream=RngStream(3))
    for phi, row in zip(phis, batch.i):
        alone = evolve(START, BASE, Controls(phi=phi, delta=0.5), horizon=2.0,
                       dt=1e-3, stream=RngStream(3))
        assert np.array_equal(row, alone.i)


def test_lag_consistency_constant_control():
    # constant issuance phi makes the lagged net loan inflow phi (1 - e^{-lam T})
    # and borrowing psi the debt inflow psi (1 - e^{-mu T}): from an empty
    # balance sheet, X and Y take Euler steps of X' = -lam X + that inflow
    phi, psi, dt = 3.0, 2.0, 0.01
    empty = FlowState(x=0.0, i=0.0, c=0.0, d=0.0, y=0.0, e=0.0)
    traj = evolve(empty, BASE, Controls(phi=phi, psi=psi), horizon=2.7, dt=dt)
    k = np.arange(len(traj.t))
    for path, rate, flow in ((traj.x, BASE.lam, phi), (traj.y, BASE.mu, psi)):
        inflow = flow * (1.0 - math.exp(-rate * BASE.t_lag))
        assert path == pytest.approx(inflow / rate * (1.0 - (1.0 - rate * dt) ** k), rel=1e-12)


def test_cashflow_zero_when_inactive():
    traj = evolve(START, ZERO_RATES, Controls(), horizon=1.0, dt=0.01)
    assert cashflow_objective(traj) == pytest.approx(0.0, abs=1e-15)


def test_cashflow_dividend_only_closed_form():
    # CF = delta * [ (1 - e^{-RT})/R - T e^{-RT} ] when only dividends flow
    delta, horizon = 0.8, 1.0
    p = ZERO_RATES
    traj = evolve(START, p, Controls(delta=delta), horizon, dt=1e-5)
    expected = delta * ((1.0 - math.exp(-p.discount * horizon)) / p.discount
                        - horizon * math.exp(-p.discount * horizon))
    assert cashflow_objective(traj) == pytest.approx(expected, abs=1e-10)


def test_cashflow_monotone_in_loan_rate():
    vals = []
    for nu in (0.03, 0.05, 0.07):
        p = FlowParams(lam=0.2, mu=0.25, nu=nu, xi=0.03, alpha=0.15,
                       beta=0.01, r=0.06, zeta=0.02, sigma=0.0,
                       discount=0.04)
        vals.append(cashflow_objective(evolve(START, p, Controls(phi=1.0),
                                              2.0, 0.005)))
    assert vals[0] < vals[1] < vals[2]


def test_discount_monotonicity():
    # with nonnegative integrand pieces, a higher discount never helps
    vals = []
    for big_r in (0.02, 0.05, 0.1):
        p = FlowParams(lam=0.2, mu=0.0, nu=0.05, xi=0.0, alpha=0.0, beta=0.0,
                       r=0.04, zeta=0.0, sigma=0.0, discount=big_r)
        start = FlowState(x=100.0, i=20.0, c=10.0, d=0.0, y=0.0, e=130.0)
        vals.append(cashflow_objective(evolve(start, p, Controls(delta=0.5),
                                              3.0, 0.005)))
    assert vals[0] > vals[1] > vals[2]


def test_constraints_zero_weights():
    rep = constraints_report(START, RegWeights())
    assert rep.funding_slack == pytest.approx(START.e)
    assert rep.liquidity_slack == pytest.approx(START.c)
    assert rep.capital_slack == pytest.approx(START.e)
    assert rep.all_pass


def test_constraints_no_equity_fails_capital():
    st = FlowState(x=100.0, i=0.0, c=0.0, d=100.0, y=0.0, e=0.0)
    rep = constraints_report(st, RegWeights(rwa=1.0, kappa=0.1))
    assert rep.capital_slack < 0 and not rep.all_pass


def test_constraints_worked_example():
    # K = 0.105 * (0.8 * 100) + 1 = 9.4, slack 15 - 9.4 = 5.6
    w = RegWeights(rwa=0.8, kappa=0.105, k2=1.0,
                   rsf_x=0.65, rsf_i=0.5, asf_d=0.9, asf_y=0.5,
                   co_d=0.1, co_y=0.4, ci_x=0.05, ci_i=0.2)
    rep = constraints_report(START, w)
    assert rep.required_capital == pytest.approx(9.4)
    assert rep.capital_slack == pytest.approx(5.6)
    assert rep.funding_slack == pytest.approx(
        0.9 * 90 + 0.5 * 25 + 15 - 0.65 * 100 - 0.5 * 20)
    assert rep.liquidity_slack == pytest.approx(
        0.05 * 100 + 0.2 * 20 + 10 - 0.1 * 90 - 0.4 * 25)


def test_search_single_feasible_point():
    w = RegWeights(rwa=0.8, kappa=0.105, k2=1.0)
    res = constant_control_search(
        START, BASE, w, horizon=1.0, dt=0.02,
        grid={"delta": np.array([0.2])})
    assert res.best is not None
    assert res.best.controls["delta"] == 0.2
    assert res.feasible_count == 1


def test_search_infeasible_everywhere():
    w = RegWeights(rwa=10.0, kappa=0.9, k2=100.0)
    res = constant_control_search(
        START, BASE, w, horizon=1.0, dt=0.05,
        grid={"delta": np.array([0.0, 0.5])})
    assert res.best is None and res.feasible_count == 0
    assert len(res.table) == 2


def test_search_rejects_a_grid_key_that_is_no_control():
    # a misspelt key was once ignored, and the search ran one all-zero row
    with pytest.raises(ValueError, match=r"grid keys \['ph'\] are not controls"):
        constant_control_search(START, BASE, RegWeights(rwa=0.8, kappa=0.105, k2=1.0),
                                horizon=1.0, dt=0.02, grid={"ph": [1.0, 2.0]})


def test_search_interior_argmax_matches_refinement():
    # CF is concave along the dividend axis in this scenario; the grid argmax
    # must agree with a golden-section refinement of the same objective
    p = FlowParams(lam=0.2, mu=0.1, nu=0.06, xi=0.02, alpha=0.05, beta=0.01,
                   r=0.05, zeta=0.02, sigma=0.0, discount=0.3)
    w = RegWeights(rwa=0.5, kappa=0.1, rsf_x=0.4, asf_d=0.8, co_d=0.05,
                   ci_x=0.02)
    horizon, dt = 4.0, 0.02

    def cf_of_delta(dv):
        traj = evolve(START, p, Controls(phi=2.0, delta=dv), horizon, dt)
        return cashflow_objective(traj)

    grid_vals = np.linspace(0.0, 3.0, 31)
    res = constant_control_search(START, p, w, horizon, dt,
                                  grid={"phi": np.array([2.0]),
                                        "delta": grid_vals})
    assert res.best is not None
    # golden-section refinement on the continuous axis
    lo, hi = 0.0, 3.0
    invphi = (math.sqrt(5) - 1) / 2
    a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fa, fb = cf_of_delta(a), cf_of_delta(b)
    for _ in range(40):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = cf_of_delta(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = cf_of_delta(a)
    refined = 0.5 * (lo + hi)
    assert abs(res.best.controls["delta"] - refined) <= (grid_vals[1] - grid_vals[0])


def test_evolve_rejects_a_bad_time_grid():
    for overrides, message in INVALID_RUNS:
        if set(overrides) <= {"horizon", "dt"}:
            run = {"horizon": 1.0, "dt": 0.01, **overrides}
            with pytest.raises(ValueError, match=message):
                evolve(START, BASE, Controls(), **run)


def test_initial_imbalance_rejected():
    bad = FlowState(x=100.0, i=20.0, c=10.0, d=90.0, y=25.0, e=14.0)
    with pytest.raises(ValueError, match="balance identity"):
        evolve(bad, BASE, Controls(), 1.0, 0.01)


def test_evolve_rejects_a_non_finite_field_or_control_by_name():
    # a NaN fails no comparison, so it once passed the balance identity check
    # and ran to NaN paths
    for name in ("x", "e"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                evolve(replace(START, **{name: value}), BASE, Controls(), 1.0, 0.01)
    for control in ({"phi": math.nan}, {"delta": np.array([0.5, math.inf])}):
        (name,) = control
        with pytest.raises(ValueError, match=f"control {name} must be finite"):
            evolve(START, BASE, Controls(**control), 1.0, 0.01)


# --------------------------------------------------------------------------
# batched constant controls

BANK_WEIGHTS = RegWeights(rwa=0.8, kappa=0.105, k2=1.0, rsf_x=0.4, asf_d=0.8,
                          co_d=0.05, ci_x=0.02)
CONTROL_RANGES = {"phi": (0.0, 8.0), "psi": (0.0, 3.0), "omega": (0.0, 2.0),
                  "pi": (0.0, 4.0), "delta": (-1.0, 12.0)}
rates = st.floats(0.0, 0.5)
flow_params = st.builds(FlowParams, lam=rates, mu=rates, nu=rates, xi=rates, alpha=rates,
                        beta=rates, r=rates, zeta=rates, sigma=st.just(0.0),
                        discount=rates, t_lag=st.floats(0.05, 2.0))


@st.composite
def control_batches(draw):
    """Constant controls that broadcast to shape (n,) or (a, b); each
    control is a scalar or an array of a shape that broadcasts there."""
    shape = draw(st.sampled_from([(1,), (3,), (5,), (2, 3), (3, 1), (1, 4)]))
    shapes = [(), shape] + ([(shape[0], 1), (1, shape[1])] if len(shape) == 2 else [])
    values = {}
    for name, (lo, hi) in CONTROL_RANGES.items():
        sub = draw(st.sampled_from(shapes))
        v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(lo, hi, sub)
        values[name] = float(v) if sub == () else v
    # at least one control carries the full batch shape
    values["phi"] = np.broadcast_to(values["phi"], shape).copy()
    return shape, values


@settings(deadline=None, max_examples=40)
@given(params=flow_params, batch=control_batches(),
       horizon=st.floats(0.1, 2.0), dt=st.floats(0.01, 0.2))
# controls of different shapes: the state takes the batch shape in steps
@example(params=BASE, horizon=1.0, dt=0.125,
         batch=((2, 3), {"phi": np.full((2, 3), 5.0), "psi": 1.0, "omega": 1.0, "pi": 2.0,
                         "delta": np.array([[7.0], [2.5]])}))
def test_batched_evolve_equals_each_control_alone(params, batch, horizon, dt):
    assume(round(horizon / dt) >= 1)   # a shorter horizon is a named error
    horizon = round(horizon / dt) * dt   # and so is a part step
    shape, values = batch
    traj = evolve(START, params, Controls(**values), horizon, dt)
    cf = cashflow_objective(traj)
    rep = constraints_report(traj, BANK_WEIGHTS)
    assert traj.x.shape == shape + traj.t.shape and cf.shape == shape
    residuals = []
    for row in np.ndindex(shape):
        alone = {k: float(np.broadcast_to(v, shape)[row]) for k, v in values.items()}
        single = evolve(START, params, Controls(**alone), horizon, dt)
        assert np.array_equal(single.t, traj.t)
        for name in ("x", "i", "c", "d", "y", "e", "j", "delta_path"):
            assert np.array_equal(getattr(traj, name)[row], getattr(single, name)), name
        assert cf[row] == cashflow_objective(single)
        single_rep = constraints_report(single, BANK_WEIGHTS)
        for name in ("funding_slack", "liquidity_slack", "capital_slack"):
            assert np.array_equal(getattr(rep, name)[row], getattr(single_rep, name)), name
        assert np.array_equal(rep.all_pass[row], single_rep.all_pass)
        assert np.array_equal(rep.min_slack[row], single_rep.min_slack)
        residuals.append(single.max_consistency_residual)
    assert traj.max_consistency_residual == max(residuals)


def brute_force_search(params, weights, horizon, dt, grid):
    """The search as one scalar run per control and one report per step."""
    names = ("phi", "psi", "omega", "pi", "delta")
    table, best = [], None
    for values in itertools.product(*(grid.get(n, [0.0]) for n in names)):
        ctrl = dict(zip(names, (float(v) for v in values)))
        traj = evolve(START, params, Controls(**ctrl), horizon, dt)
        reports = [constraints_report(traj.state_at(k), weights) for k in range(len(traj.t))]
        feasible = all(r.all_pass for r in reports)
        cf = cashflow_objective(traj)
        table.append((ctrl, cf, feasible, min(float(r.min_slack) for r in reports)))
        if feasible and (best is None or cf > table[best][1]):
            best = len(table) - 1
    return table, best


@settings(deadline=None, max_examples=25)
@given(params=flow_params, horizon=st.floats(0.2, 3.0), dt=st.floats(0.02, 0.2),
       sizes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_search_equals_scalar_brute_force(params, horizon, dt, sizes, seed):
    horizon = round(horizon / dt) * dt   # a whole number of steps
    rng = np.random.default_rng(seed)
    grid = {name: np.sort(rng.uniform(lo, hi, n))
            for (name, (lo, hi)), n in zip(CONTROL_RANGES.items(), sizes)}
    res = constant_control_search(START, params, BANK_WEIGHTS, horizon, dt, grid)
    table, best = brute_force_search(params, BANK_WEIGHTS, horizon, dt, grid)
    assert [(r.controls, r.cashflow, r.feasible, r.min_slack) for r in res.table] == table
    assert (res.best is None) == (best is None)
    if best is not None:
        assert res.best is res.table[best]


def test_search_makes_one_evolve_and_one_report(monkeypatch):
    calls = {"evolve": 0, "constraints_report": 0}
    for name in calls:
        def counted(*args, _fn=getattr(balance, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(balance, name, counted)
    grid = {"phi": np.linspace(0.0, 8.0, 5), "omega": np.array([0.0, 1.0, 2.0]),
            "pi": np.array([0.0, 2.0, 4.0]), "delta": np.linspace(0.0, 12.0, 9)}
    res = constant_control_search(START, BASE, BANK_WEIGHTS, 4.0, 0.02, grid)
    assert len(res.table) == 405
    assert calls == {"evolve": 1, "constraints_report": 1}


def test_search_over_an_empty_axis():
    res = constant_control_search(START, BASE, BANK_WEIGHTS, 1.0, 0.05,
                                  {"phi": np.array([1.0, 2.0]), "delta": np.array([])})
    assert res.table == [] and res.best is None and res.feasible_count == 0
