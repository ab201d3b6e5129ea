"""Every float field of the model parameter sets, and of the balance-sheet
flow rates and regulatory weights, rejects NaN and infinity with a
ValueError that names the field.  A NaN fails no range check: an
accepted omega = NaN would make `goodwin.simulate` run the classical drift
(omega > 0 is False), q = NaN would give `keen.simulate` NaN leverage, and
a NaN flow rate would make `constant_control_search` report an empty
feasible set.

The range checks name the field too: every positive field of these
records, and of the MMC initial sheet, rejects 0.0 with "<field> must be
positive, got 0.0", and every non-negative one rejects -1.0 with
"<field> must be non-negative, got -1.0", all from `sde.require_fields`.
The interval checks (delta_rf, delta_rb, nu_b, kappa) keep their own
messages and are tested next to their models."""

import math
from dataclasses import fields, replace

import pytest

from circuitlab import balance, dividend, goodwin, keen, mmc, network

PRESETS = {
    "GoodwinParams": goodwin.FIG3_PARAMS,
    "KeenParams": keen.FIG6_PARAMS,
    "MmcParams": mmc.FIG8_PARAMS,
    "EquityParams": dividend.FIG13_PARAMS,
    "FlowParams": balance.FlowParams(lam=0.2, mu=0.1, nu=0.06, xi=0.02, alpha=0.05,
                                     beta=0.01, r=0.05, zeta=0.01, sigma=0.1,
                                     discount=0.04, t_lag=1.0),
    "RegWeights": balance.RegWeights(rwa=0.8, kappa=0.105, k2=1.0, k3=0.5, k4=0.5,
                                     rsf_x=0.4, rsf_i=0.2, asf_d=0.8, asf_y=1.0,
                                     co_d=0.05, co_y=0.1, ci_x=0.5, ci_i=0.9),
}
CASES = [(cls, f.name) for cls, preset in PRESETS.items() for f in fields(preset)]

# (positive, non-negative) fields of each record; the records check them
# when built, and the MMC sheet in `MmcState.validate`, which a run calls
RANGES = {
    "GoodwinParams": (("a", "b", "c", "d"), ("omega", "sigma_s", "sigma_lambda")),
    "KeenParams": (("nu_f", "q"), ("omega", "sigma_s", "sigma_lambda")),
    "MmcParams": (("nu_f",), ("xi_delta", "xi_a", "r_d", "r_l", "kappa_c", "upsilon1",
                              "omega", "sigma_c", "sigma_k", "sigma_s", "sigma_lambda")),
    "MmcState": (("theta_w", "n_w", "c_r", "k_f"), ("d_r", "l_r", "d_f", "l_f")),
    "EquityParams": (("sigma", "discount", "delta1", "delta2"), ("lambda1", "lambda2")),
    "FlowParams": ((), ("lam", "mu", "nu", "xi", "alpha", "beta", "sigma", "discount",
                        "t_lag")),
    "RegWeights": ((), ("rwa", "rsf_x", "rsf_i", "asf_d", "asf_y", "co_d", "co_y",
                        "ci_x", "ci_i")),
}
RANGE_CASES = [(cls, name, kind) for cls, (pos, nonneg) in RANGES.items()
               for kind, names in (("positive", pos), ("non-negative", nonneg))
               for name in names]


def _build(cls, **change):
    if cls == "MmcState":
        # K_b rebalances the sheet, so that only the changed field can fail
        sheet = replace(mmc.FIG8_STATE, **change)
        replace(sheet, k_b=sheet.k_b - sheet.balance_residual()).validate()
    else:
        replace(PRESETS[cls], **change)


def test_every_field_is_a_float():
    assert all(isinstance(getattr(PRESETS[cls], name), float) for cls, name in CASES)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", CASES, ids=[f"{c}.{n}" for c, n in CASES])
def test_non_finite_field_is_rejected_by_name(cls, name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        replace(PRESETS[cls], **{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_network_volatility_is_rejected(bad):
    with pytest.raises(ValueError, match="^sigma must be finite"):
        network.fig15_network(sigma=(bad, 0.4))
    with pytest.raises(ValueError, match="^sigma must be finite"):
        network.fig15_network(sigma=(0.4, bad))


@pytest.mark.parametrize("cls, name, kind", RANGE_CASES,
                         ids=[f"{c}.{n}" for c, n, _ in RANGE_CASES])
def test_out_of_range_field_is_rejected_by_name(cls, name, kind):
    bad = 0.0 if kind == "positive" else -1.0
    with pytest.raises(ValueError, match=rf"^{name} must be {kind}, got {bad}$"):
        _build(cls, **{name: bad})
    _build(cls, **{name: 1.0 if kind == "positive" else 0.0})     # in range, it passes


# fields with an interval check of their own, which rejects -1.0 too
INTERVALS = {"delta_rf", "delta_rb", "nu_b", "kappa", "s_w", "lambda_w"}


def test_every_other_field_takes_a_negative_value():
    # so RANGES lists every sign-checked field of the seven records
    for cls, (pos, nonneg) in RANGES.items():
        record = mmc.FIG8_STATE if cls == "MmcState" else PRESETS[cls]
        for f in fields(record):
            if f.name not in {*pos, *nonneg, *INTERVALS}:
                _build(cls, **{f.name: -1.0})
