"""The Euler loop shared by the three circuit models.

One deterministic simulator step equals state + dt * drift(state), exactly:
the simulators and the scalar drift helpers must evaluate the same formula;
states and dt are drawn where no clamp, floor or cap fires.  A thinned
record holds the stride-1 rows bit for bit, and floors are applied and
counted.  The stacked loop equals the per-component loop it replaced byte
for byte, a NaN matching a NaN in the same place, and a path's record does
not depend on how many paths run beside it."""

import math
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuitlab import goodwin, keen, mmc, sde
from circuitlab.rng import PathNoise, RngStream

PROFILE = settings(deadline=None, max_examples=60)

unit = st.floats(0.05, 0.95)
positive = st.floats(0.01, 1.0)


def _euler(x, d, dt):
    return x + dt * d


@pytest.mark.parametrize("regularized", [False, True])
@PROFILE
@given(s=unit, lam=unit, a=positive, b=positive, c=positive, d=positive,
       omega=st.floats(0.0, 0.02), dt=st.floats(1e-4, 1e-2))
def test_goodwin_step_is_drift(regularized, s, lam, a, b, c, d, omega, dt):
    params = goodwin.GoodwinParams(a=a, b=b, c=c, d=d, omega=omega if regularized else 0.0)
    state = goodwin.GoodwinState(s, lam)
    ds, dl = goodwin.drift(state, params)
    res = goodwin.simulate(state, params, horizon=dt, dt=dt)
    assert res.t[-1] == dt
    assert res.s_w[-1, 0] == _euler(s, ds, dt)
    assert res.lambda_w[-1, 0] == _euler(lam, dl, dt)
    assert res.clamp_events == 0


@pytest.mark.parametrize("regularized, with_nu_factor",
                         [(False, True), (True, True), (True, False)])
@PROFILE
@given(s=unit, lam=unit, g=st.floats(0.0, 3.0), r_l=st.floats(0.0, 0.1),
       nu_f=st.floats(0.05, 0.5), p=st.floats(-0.05, 0.0), q=st.floats(1.0, 30.0),
       r=st.floats(-10.0, -2.0), omega=st.floats(0.001, 0.02), step=st.floats(1e-4, 1e-2))
def test_keen_step_is_drift(regularized, with_nu_factor, s, lam, g, r_l, nu_f, p, q, r,
                            omega, step):
    params = keen.KeenParams(a=0.225, b=0.2, c=0.075, d=0.03, r_l=r_l, nu_f=nu_f,
                             p=p, q=q, r=r, omega=omega if regularized else 0.0)
    state = keen.KeenState(s, lam, g)
    ds, dl, dg = keen.keen_drift(state, params, with_nu_factor=with_nu_factor)
    # moves (s_w, lambda_w) by at most `step`, so no clamp fires
    dt = step / max(abs(ds), abs(dl), 1.0)
    assume(g + dt * dg < 10.0)
    res = keen.simulate(state, params, horizon=dt, dt=dt, with_nu_factor=with_nu_factor)
    assert res.s_w[-1, 0] == _euler(s, ds, dt)
    assert res.lambda_w[-1, 0] == _euler(lam, dl, dt)
    assert res.gamma_f[-1, 0] == _euler(g, dg, dt)
    assert res.clamp_events == 0 and res.minsky_paths == 0


@PROFILE
@given(stocks=st.tuples(*[st.floats(5.0, 60.0)] * 4), c_r=st.floats(0.5, 6.0),
       k_f=st.floats(20.0, 80.0), theta_w=st.floats(0.5, 2.0), n_w=st.floats(50.0, 150.0),
       s=st.floats(0.4, 0.9), lam=st.floats(0.5, 0.95),
       rates=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.08)),
       shares=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       nu_b=st.floats(0.05, 0.9), upsilon0=st.floats(-3.0, -1.0),
       dt=st.floats(1e-4, 1e-2))
def test_mmc_step_is_drift(stocks, c_r, k_f, theta_w, n_w, s, lam, rates, shares, nu_b,
                           upsilon0, dt):
    d_r, l_r, d_f, l_f = stocks
    state = mmc.MmcState(c_r=c_r, d_r=d_r, l_r=l_r, d_f=d_f, l_f=l_f, k_f=k_f,
                         k_b=l_r + l_f - d_r - d_f, theta_w=theta_w, n_w=n_w,
                         s_w=s, lambda_w=lam)
    params = mmc.MmcParams(**{**mmc.FIG8_PARAMS.__dict__, "r_d": rates[0], "r_l": rates[1],
                              "delta_rf": shares[0], "delta_rb": shares[1],
                              "nu_b": nu_b, "upsilon0": upsilon0})
    try:
        out = mmc.mmc_drift_and_diffusion(state, params)
    except mmc.UpsilonError:
        assume(False)
    res = mmc.simulate(state, params, horizon=dt, dt=dt)
    assert out.upsilon_f == res.upsilon_f[0, 0]
    assert res.floor_hits == 0 and res.clamp_events == 0
    assert res.credit_crunch_steps == int(out.credit_crunch)
    assert res.capacity_cap_steps == int(out.capacity_capped)
    for k in mmc.STOCK_NAMES:
        assert res.series[k][-1, 0] == _euler(getattr(state, k), out.drift[k], dt), k


# a record stride that does not divide the 60 steps, so the last row is extra
STRIDE, DT, N_STEPS = 7, 0.01, 60


def _assert_thinned(thin, full):
    """Every recorded array of a stride-7 run equals the matching rows of the
    stride-1 run, bit for bit, and every counter agrees."""
    rows = np.rint(thin.t / DT).astype(int)
    assert rows.tolist() == [*range(0, N_STEPS + 1, STRIDE), N_STEPS]
    for name, value in vars(thin).items():
        other = vars(full)[name]
        if name == "records":
            for i, rec in enumerate(value):
                assert np.array_equal(rec, other[i][rows]), i
        elif name == "t" or isinstance(value, np.ndarray) and value.ndim == 2:
            assert np.array_equal(value, other[rows]), name
        elif value is None:
            assert other is None, name
        else:
            assert np.array_equal(value, other, equal_nan=True), name


# options are module constants of the model, patched for the test
@pytest.mark.parametrize("model, state, params, options", [
    (goodwin, goodwin.GoodwinState(0.75, 0.8), goodwin.FIG3_PARAMS, {}),
    (keen, keen.KeenState(0.75, 0.8, 0.1), keen.FIG6_PARAMS, {"MINSKY_LEVERAGE": 0.106}),
    (mmc, mmc.FIG8_STATE, replace(mmc.FIG8_PARAMS, sigma_c=0.04, sigma_k=0.02,
                                  sigma_s=0.01, sigma_lambda=0.01), {}),
], ids=["goodwin", "keen", "mmc"])
def test_record_stride_keeps_the_stride_one_rows(model, state, params, options, monkeypatch):
    for name, value in options.items():
        monkeypatch.setattr(model, name, value)

    def run(stride):
        return model.simulate(state, params, horizon=N_STEPS * DT, dt=DT, paths=4,
                              stream=RngStream(12), record_stride=stride)
    _assert_thinned(run(STRIDE), run(1))


def test_floors_raise_and_count():
    # a component falling at rate 1 from 0.25 crosses its zero floor at the
    # third of ten steps and is held there: eight hits on each of two paths
    run = sde.EulerPaths.run(lambda x: np.array([[0.0], [0.0], [-1.0]]) + 0.0 * x,
                             (0.5, 0.5, 0.25), horizon=1.0, dt=0.1, paths=2, stream=None,
                             diffusion=None, regularized=False,
                             record_stride=1, floors={2: 0.0})
    assert run.floor_hits == 16 and run.clamp_events == 0
    assert np.all(run.records[2][3:] == 0.0) and np.all(run.records[2][:3] > 0.0)


def test_a_nan_state_makes_its_range_nan():
    # path 1's s_w turns NaN at the first step; the range covers every path
    # still running, so it reads NaN, and lambda_w's stays finite
    run = sde.EulerPaths.run(lambda x: np.array([[0.0, np.nan], [0.0, 0.0]]) * x,
                             (0.5, 0.5), horizon=0.3, dt=0.1, paths=2, stream=None,
                             diffusion=None, regularized=False, record_stride=1)
    assert np.isnan(run.s_range).all() and run.lambda_range == (0.5, 0.5)


@pytest.mark.parametrize("model, state, params, name", [
    (goodwin, goodwin.GoodwinState(np.nan, 0.5), goodwin.FIG1_PARAMS, "initial s_w"),
    (goodwin, goodwin.GoodwinState(0.5, np.inf), goodwin.FIG3_PARAMS, "initial lambda_w"),
    (keen, keen.KeenState(0.5, 0.5, np.nan), keen.FIG4_PARAMS, "initial gamma_f"),
    (keen, keen.KeenState(0.5, 0.5, -np.inf), keen.FIG6_PARAMS, "initial gamma_f"),
    (mmc, replace(mmc.FIG8_STATE, c_r=np.nan), mmc.FIG8_PARAMS, "c_r"),
], ids=["goodwin-classical", "goodwin-stochastic", "keen-classical", "keen-stochastic", "mmc"])
def test_a_non_finite_initial_component_is_rejected_by_name(model, state, params, name):
    # classical deterministic runs once ran a NaN start to NaN paths unchecked
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        model.simulate(state, params, horizon=0.1, dt=0.01, stream=RngStream(0))


def test_a_drift_of_the_wrong_shape_is_rejected():
    for bad in (lambda x: 0.0,                      # a scalar would broadcast
                lambda x: x[:, :1],                 # one path would broadcast
                lambda x: x[:1],                    # a component missing
                lambda x: (x[0], x[1])):            # rows, not one block
        with pytest.raises(ValueError, match=r"drift must return one array of shape \(2, 3\)"):
            sde.EulerPaths.run(bad, (0.5, 0.5), horizon=0.1, dt=0.1, paths=3, stream=None,
                               diffusion=None, regularized=False, record_stride=1)


def _per_component_run(drift, initial, horizon, dt, paths, stream, diffusion, regularized,
                       record_stride, loaded, floors, cap):
    """EulerPaths.run as it was before the state was stacked: one array per
    component and each rule applied component by component.  Only the drift
    and diffusion calls are adapted: they get the stacked state, and the
    drift's block is taken row by row."""
    rec_idx = sde.record_index(horizon, dt, record_stride)
    stochastic = diffusion is not None
    clamp = regularized or stochastic
    n_steps = int(rec_idx[-1])
    x = [np.full(paths, float(v)) for v in initial]
    records = [np.empty((len(rec_idx), paths)) for _ in initial]
    for rec, v in zip(records, x):
        rec[0] = v
    next_rec = 1
    zs = (PathNoise(stream, paths).rows(n_steps, len(loaded)) if stochastic
          else repeat(None, n_steps))
    sqdt = math.sqrt(dt)
    lo, hi = sde.CLAMP_EPS, 1.0 - sde.CLAMP_EPS
    clamped = floored = 0
    lows = [x[0].copy(), x[1].copy()]
    highs = [x[0].copy(), x[1].copy()]
    cap_times = None if cap is None else np.full(paths, np.nan)
    alive = np.ones(paths, dtype=bool)
    for k, z in enumerate(zs, start=1):
        nxt = [v + d * dt for v, d in zip(x, drift(np.array(x)))]
        if stochastic:
            for i, load, z_i in zip(loaded, diffusion(np.array(x)), z):
                nxt[i] += load * sqdt * z_i
        if clamp:
            out = (nxt[0] < lo) | (nxt[0] > hi) | (nxt[1] < lo) | (nxt[1] > hi)
            clamped += int((out & alive).sum())
            nxt[0] = np.minimum(np.maximum(nxt[0], lo), hi)
            nxt[1] = np.minimum(np.maximum(nxt[1], lo), hi)
        for i, floor in floors.items():
            floored += int(((nxt[i] < floor) & alive).sum())
            nxt[i] = np.maximum(nxt[i], floor)
        if cap is None:
            x = nxt
        else:
            x = [np.where(alive, new, old) for new, old in zip(nxt, x)]
            blown = alive & (x[2] > cap)
            if np.any(blown):
                cap_times[blown] = k * dt
                alive &= ~blown
        for low, high, v in zip(lows, highs, x):
            np.minimum(low, v, out=low, where=alive)
            np.maximum(high, v, out=high, where=alive)
        if next_rec < len(rec_idx) and k == rec_idx[next_rec]:
            for rec, v in zip(records, x):
                rec[next_rec] = v
            next_rec += 1
    s_range, lambda_range = ((float(low.min()), float(high.max()))
                             for low, high in zip(lows, highs))
    return dict(t=rec_idx * dt, records=records, clamp_events=clamped, floor_hits=floored,
                total_steps=n_steps * paths, s_range=s_range, lambda_range=lambda_range,
                cap_times=cap_times)


def _bytes(value):
    """The bytes with every NaN made the same NaN: finite entries compare
    byte for byte and NaN entries by position.  Of two NaN operands, IEEE 754
    leaves open which one an operation returns, and numpy's loops differ."""
    if value is None:
        return None
    out = np.array(value, dtype=float)
    out[np.isnan(out)] = math.nan
    return out.tobytes()


# loaded rows (0, 1) and floor rows (2, 3) index by slice, the others by
# array.  The first example holds a -0.0 at a 0.0 floor: np.maximum turns it
# into +0.0, so a loop that skipped the maximum where nothing is below the
# floor would keep the sign bit.  In the second, path 0 turns NaN while the
# others clamp and cross the cap: a loop whose one-reduction tests let a NaN
# hide the other paths would skip their clamps and freezes.
@settings(deadline=None, max_examples=80)
@example(paths=2, n_steps=3, stride=1, dt=0.01, seed=0, s=0.5, lam=0.5, g=1.0, y=-0.0,
         sigma=(0.0, 0.0, 0.0), regularized=False, stochastic=False, loaded=(0, 1),
         floor_rows=(3,), floor_level=0.0, rates=(0.0, 0.0), cap=None, nan_path=None)
@example(paths=3, n_steps=40, stride=1, dt=0.05, seed=3, s=0.02, lam=0.98, g=1.0, y=0.0,
         sigma=(0.6, 0.6, 0.0), regularized=True, stochastic=True, loaded=(0, 1),
         floor_rows=(), floor_level=0.0, rates=(3.0, 0.0), cap=1.5, nan_path=0)
@given(paths=st.integers(1, 9), n_steps=st.integers(1, 40), stride=st.integers(1, 7),
       dt=st.floats(1e-3, 0.05), seed=st.integers(0, 2**32 - 1),
       s=st.floats(0.02, 0.98), lam=st.floats(0.02, 0.98),
       g=st.floats(0.5, 1.5), y=st.one_of(st.just(-0.0), st.floats(-0.1, 0.1)),
       sigma=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
       regularized=st.booleans(), stochastic=st.booleans(),
       loaded=st.sampled_from([(0, 1), (3, 0, 1)]),
       floor_rows=st.sampled_from([(), (3,), (2, 3), (1, 3)]),
       floor_level=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
       rates=st.tuples(st.floats(-1.0, 3.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
       cap=st.one_of(st.none(), st.floats(1.0, 3.0)),
       nan_path=st.one_of(st.none(), st.integers(0, 8)))
def test_stacked_run_is_byte_equal_to_the_per_component_loop(
        paths, n_steps, stride, dt, seed, s, lam, g, y, sigma, regularized, stochastic,
        loaded, floor_rows, floor_level, rates, cap, nan_path):
    params = goodwin.GoodwinParams(a=0.225, b=0.2, c=0.4, d=0.6,
                                   omega=0.005 if regularized else 0.0)
    poison = np.zeros(paths)
    if nan_path is not None:
        poison[nan_path % paths] = np.nan
    growth, fall = rates

    def drift(x):
        out = np.empty_like(x)
        sde.employment_drift(x[:2], params.c - params.d * x[0], params, out[:2])
        out[0] += poison * x[0]
        np.multiply(growth, x[2], out=out[2])
        out[2] += poison
        np.add(-fall, 0.0 * x[3], out=out[3])
        return out

    sig = np.array([[sigma[0]], [sigma[1]]])

    def diffusion(x):
        pair = sig * sde.jacobi(x[:2])
        return pair if loaded == (0, 1) else np.concatenate([sigma[2] * x[3:], pair])

    floors = {i: (floor_level if i > 1 else 0.3) for i in floor_rows}
    args = (drift, (s, lam, g, y), n_steps * dt, dt, paths, RngStream(seed),
            diffusion if stochastic else None, regularized, stride)
    run = sde.EulerPaths.run(*args, loaded=loaded, floors=floors, cap=cap)
    ref = _per_component_run(*args, loaded=loaded, floors=floors, cap=cap)
    assert [_bytes(r) for r in run.records] == [_bytes(r) for r in ref["records"]]
    for name in ("t", "s_range", "lambda_range", "cap_times"):
        assert _bytes(getattr(run, name)) == _bytes(ref[name]), name
    for name in ("clamp_events", "floor_hits", "total_steps"):
        assert getattr(run, name) == ref[name], name


@pytest.mark.parametrize("model, state, params, options", [
    (goodwin, goodwin.GoodwinState(0.75, 0.8),
     replace(goodwin.FIG3_PARAMS, sigma_s=0.6, sigma_lambda=0.6), {}),
    (keen, keen.KeenState(0.75, 0.8, 3.0),
     replace(keen.FIG6_PARAMS, sigma_s=0.3, sigma_lambda=0.3), {"MINSKY_LEVERAGE": 3.5}),
    (mmc, mmc.FIG8_STATE, replace(mmc.FIG8_PARAMS, sigma_c=0.04, sigma_k=0.02,
                                  sigma_s=0.01, sigma_lambda=0.01), {}),
], ids=["goodwin", "keen", "mmc"])
def test_a_path_does_not_depend_on_how_many_paths_run(model, state, params, options,
                                                      monkeypatch):
    """A run of k paths equals the first k paths of a wider run, byte for
    byte, in every per-path array: the records, the cap times and, for MMC,
    the propensity, production and price of each recorded row.  options are
    module constants of the model, patched for the test."""
    for name, value in options.items():
        monkeypatch.setattr(model, name, value)

    def run(paths):
        return model.simulate(state, params, horizon=1.0, dt=0.01, paths=paths,
                              stream=RngStream(0))

    wide = run(5)
    for k in (1, 3):
        narrow = run(k)
        for name, value in vars(narrow).items():
            other = vars(wide)[name]
            if name == "records":
                for i, rec in enumerate(value):
                    assert rec.tobytes() == other[i][:, :k].tobytes(), (k, i)
            elif isinstance(value, np.ndarray) and value.shape[-1] == k and name != "t":
                assert value.tobytes() == np.ascontiguousarray(other[..., :k]).tobytes(), \
                    (k, name)
