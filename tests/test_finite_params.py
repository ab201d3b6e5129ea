"""Every float field of the model parameter sets, and of the balance-sheet
flow rates and regulatory weights, rejects NaN and infinity with a
ValueError that names the field.  A NaN fails no range check: an
accepted omega = NaN would make `goodwin.simulate` run the classical drift
(omega > 0 is False), q = NaN would give `keen.simulate` NaN leverage, and
a NaN flow rate would make `constant_control_search` report an empty
feasible set."""

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

