"""The block drift kernels against the per-row formulas they replaced.

Each model's drift is a kernel on the stacked state, shape (components,
paths), that writes its rows into one array; `_row_drifts` keeps the
formulas one component at a time.  On random blocks, NaN entries, signed
zeros, the unit-square edges and omega = 0 included, every kernel equals its
per-row oracle byte for byte, and so do the scalar entry points that wrap
the kernels on a (components, 1) block.  The one exception is a NaN's sign
and payload: of two NaN operands, IEEE 754 leaves open which one an
operation returns, and numpy's loops differ (a commutative multiply may
swap them), so a NaN matches any NaN."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _row_drifts as rows
from circuitlab import goodwin, keen, mmc

PROFILE = settings(deadline=None, max_examples=150)

# 1.0 puts a zero under a barrier, 0.5 with a = b = 0.5 a zero drift rate
value = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf]))
coef = st.one_of(st.floats(0.01, 1.0), st.just(0.5))
omega = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))


def blocks(n_rows: int):
    return hnp.arrays(float, st.tuples(st.just(n_rows), st.integers(1, 5)), elements=value)


def _bytes(*arrays):
    """The rows' bytes, with every NaN made the same NaN."""
    out = np.array(arrays, dtype=float)
    out[np.isnan(out)] = math.nan
    return out.tobytes()


ZERO_RATE = np.array([[0.5, -0.0, math.nan], [1.0, 1.0, 0.25]])


@PROFILE
@example(x=ZERO_RATE, a=0.5, b=0.5, c=0.5, d=0.5, omega=0.0)
@example(x=ZERO_RATE, a=0.5, b=0.5, c=0.5, d=0.5, omega=0.01)
@given(x=blocks(2), a=coef, b=coef, c=coef, d=coef, omega=omega)
def test_goodwin_kernel_equals_the_row_formulas(x, a, b, c, d, omega):
    params = goodwin.GoodwinParams(a=a, b=b, c=c, d=d, omega=omega)
    with np.errstate(all="ignore"):
        got = goodwin._drift(x, params)
        want = rows.goodwin_drift(x[0], x[1], params)
    assert _bytes(got) == _bytes(*want)


@PROFILE
@given(x=blocks(3), nu_f=st.floats(0.05, 0.5), r_l=st.floats(0.0, 0.1),
       q=st.floats(1.0, 30.0), omega=omega, with_nu_factor=st.booleans())
def test_keen_kernel_equals_the_row_formulas(x, nu_f, r_l, q, omega, with_nu_factor):
    params = replace(keen.FIG4_PARAMS, nu_f=nu_f, r_l=r_l, q=q, omega=omega)
    with np.errstate(all="ignore"):
        s_f = 1.0 - x[0]
        fx, _ = keen._capped_profit(keen._profit_share(s_f, x[2], params), params)
        got = keen._drift(x, s_f, fx, params, with_nu_factor)
        want = rows.keen_drift(x[0], x[1], x[2], s_f, fx, params, with_nu_factor)
    assert _bytes(got) == _bytes(*want)


@PROFILE
@given(x=blocks(11), u=st.one_of(st.floats(0.0, 0.999), st.sampled_from([0.0, -0.0, math.nan])),
       rates=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.08)),
       shares=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       nu_b=st.floats(0.05, 0.9), omega=omega,
       sigmas=st.tuples(*[st.floats(0.0, 0.1)] * 4))
def test_mmc_kernels_equal_the_row_formulas(x, u, rates, shares, nu_b, omega, sigmas):
    p = replace(mmc.FIG8_PARAMS, r_d=rates[0], r_l=rates[1], delta_rf=shares[0],
                delta_rb=shares[1], nu_b=nu_b, omega=omega, sigma_c=sigmas[0],
                sigma_k=sigmas[1], sigma_s=sigmas[2], sigma_lambda=sigmas[3])
    u = np.full(x.shape[1], u)
    by_name = dict(zip(mmc.STOCK_NAMES, x))
    with np.errstate(all="ignore"):
        got, capital_ok, new_loans, capped = mmc._flows(x, u, p)
        unmet = np.where(capital_ok, 0.0, new_loans[0] + new_loans[1])
        want, want_ok, want_unmet, want_capped = rows.mmc_flows(by_name, u, p)
        load = mmc._diffusion(x, p)
        want_load = rows.mmc_diffusion(by_name, p)
    assert _bytes(got) == _bytes(*(want[k] for k in mmc.STOCK_NAMES))
    assert np.array_equal(capital_ok, want_ok) and np.array_equal(capped, want_capped)
    assert _bytes(unmet) == _bytes(want_unmet)
    assert _bytes(load) == _bytes(*want_load)


interior = st.floats(0.01, 0.99)


@PROFILE
@given(s=interior, lam=interior, g=st.floats(-1.0, 3.0), a=coef, b=coef, c=coef, d=coef,
       omega=omega, with_nu_factor=st.booleans())
def test_scalar_entry_points_equal_the_row_formulas(s, lam, g, a, b, c, d, omega,
                                                    with_nu_factor):
    gp = goodwin.GoodwinParams(a=a, b=b, c=c, d=d, omega=omega)
    assert _bytes(*goodwin.drift(goodwin.GoodwinState(s, lam), gp)) == \
        _bytes(*rows.goodwin_drift(s, lam, gp))

    kp = replace(keen.FIG4_PARAMS, omega=omega)
    state = keen.KeenState(s, lam, g)
    fx = keen.profit_function(keen._profit_share(state.s_f, g, kp), kp)
    assert _bytes(*keen.keen_drift(state, kp, with_nu_factor)) == \
        _bytes(*rows.keen_drift(s, lam, g, state.s_f, fx, kp, with_nu_factor))

    mp = replace(mmc.FIG8_PARAMS, omega=omega)
    sheet = replace(mmc.FIG8_STATE, s_w=s, lambda_w=lam)
    out = mmc.mmc_drift_and_diffusion(sheet, mp, upsilon=0.3)
    want, ok, unmet, capped = rows.mmc_flows(vars(sheet), 0.3, mp)
    assert _bytes(*out.drift.values()) == _bytes(*(want[k] for k in mmc.STOCK_NAMES))
    assert list(out.drift) == list(mmc.STOCK_NAMES)
    assert out.credit_crunch == (not ok) and out.capacity_capped == capped
    assert out.unmet_financing == unmet
    assert _bytes(*out.diffusion.values()) == _bytes(*rows.mmc_diffusion(vars(sheet), mp))
