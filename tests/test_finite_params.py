"""Every float field of the model parameter sets rejects NaN and infinity
with a ValueError that names the field.  A NaN fails no range check: an
accepted omega = NaN would make `goodwin.simulate` run the classical drift
(omega > 0 is False), and q = NaN would give `keen.simulate` NaN leverage."""

import math
from dataclasses import fields, replace

import pytest

from circuitlab import dividend, goodwin, keen, mmc, network

PRESETS = {
    "GoodwinParams": goodwin.FIG3_PARAMS,
    "KeenParams": keen.FIG6_PARAMS,
    "MmcParams": mmc.FIG8_PARAMS,
    "EquityParams": dividend.FIG13_PARAMS,
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

