import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ive

from circuitlab import bessel
from circuitlab.bessel import iv_scaled

from _bessel_reference import IVE_REFERENCE


def test_against_high_precision_reference():
    for nu, z, ref in IVE_REFERENCE:
        got = iv_scaled(nu, z)
        if ref == 0.0:
            assert got < 1e-290, (nu, z, got)
        else:
            assert abs(got - ref) / abs(ref) < 1e-12, (nu, z, got, ref)


def test_special_values():
    assert iv_scaled(0.0, 0.0) == 1.0
    assert iv_scaled(2.5, 0.0) == 0.0
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh(z)
    for z in (0.3, 2.0, 9.0):
        exact = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z) * math.exp(-z)
        assert iv_scaled(0.5, z) == pytest.approx(exact, rel=1e-13)


def test_order_zero_where_half_the_argument_underflows():
    # (z/2)^0 = 1 even where z/2 rounds to 0, so I_0(z) e^-z is 1 there, not NaN
    assert iv_scaled(0.0, 5e-324) == 1.0
    zs = np.array([5e-324, 0.5, 3.0, 5e-324, 40.0])
    got = iv_scaled(0.0, zs)
    assert got[0] == got[3] == 1.0
    assert np.array_equal(got, [iv_scaled(0.0, z) for z in zs])
    assert got[[1, 2, 4]] == pytest.approx(ive(0.0, zs[[1, 2, 4]]), rel=1e-13)


def test_vectorized_matches_scalar():
    # every branch is elementwise, the ive one above z = 700 included: no
    # value may depend on the other points of the call
    zs = np.array([0.0, 0.05, 1.0, 17.0, 33.0, 123.4, 456.7,
                   1100.0, 1500.0, 13000.0, 30000.0])
    for nu in (3.25, 178.0):
        vec = iv_scaled(nu, zs)
        for z, v in zip(zs, vec):
            assert v == iv_scaled(nu, float(z))


def test_recurrence_identity():
    # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
    rng = np.random.default_rng(4)
    for _ in range(60):
        nu = rng.uniform(1.0, 40.0)
        z = rng.uniform(0.1, 400.0)
        lhs = iv_scaled(nu - 1.0, z) - iv_scaled(nu + 1.0, z)
        rhs = 2.0 * nu / z * iv_scaled(nu, z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


def test_rejects_invalid_inputs():
    for nu in (-0.5, np.nan, np.inf):
        for z in (1.0, 0.0):
            with pytest.raises(ValueError, match="order"):
                iv_scaled(nu, z)
    with pytest.raises(ValueError, match="non-negative"):
        iv_scaled(1.0, -1.0)
    with pytest.raises(ValueError):
        iv_scaled(1.0, np.nan)


def test_monotone_in_argument():
    zs = np.linspace(0.01, 60.0, 500)
    vals = iv_scaled(4.5, zs) * np.exp(zs)
    assert np.all(np.diff(vals) > 0)


def _allocating_series(nu, z, z_hi):
    """bessel._series_scaled as it was written before it worked in place:
    each step allocates t * q / d and s + t.  It shares the series' guard
    that skips nu log(z/2) at nu = 0."""
    with np.errstate(divide="ignore"):
        log_t0 = (nu * np.log(0.5 * z) if nu > 0 else 0.0) - math.lgamma(nu + 1.0) - z
    t = np.exp(log_t0)
    s = t.copy()
    q = 0.25 * z * z
    k_star = 0.5 * (-(nu + 1.0) + math.sqrt((nu + 1.0) ** 2 + z_hi * z_hi))
    k_max = int(k_star + 12.0 * math.sqrt(max(z_hi, 1.0)) + 30.0)
    for k in range(k_max):
        t = t * q / ((k + 1.0) * (nu + k + 1.0))
        s = s + t
        if (k & 15) == 15 and np.all(t <= 1e-17 * s):
            break
    return s, log_t0 < -700.0


@settings(deadline=None, max_examples=60)
@given(nu=st.floats(0.0, 60.0),
       z=st.lists(st.floats(0.0, 25.0, exclude_min=True), min_size=1, max_size=40))
# z/2 underflows to 0, whose log is -inf
@example(nu=1.0, z=[5e-324])
def test_in_place_series_is_bit_identical_to_the_allocating_loop(nu, z):
    z = np.array(z)
    z_hi = 3.0 if z.max() <= 3.0 else 25.0     # the bucket iv_scaled would use
    got, got_slow = bessel._series_scaled(nu, z, z_hi)
    ref, ref_slow = _allocating_series(nu, z, z_hi)
    assert np.array_equal(got_slow, ref_slow)
    # bit for bit
    assert got.tobytes() == ref.tobytes()
