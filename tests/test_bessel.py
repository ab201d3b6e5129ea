import math

import numpy as np
import pytest

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
