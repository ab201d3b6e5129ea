"""Classical and regularized-stochastic Keen dynamics.

Adds firms' leverage Gamma_f = D_f / K_f to the Goodwin pair.  Investment
responds to the net profit share through f(x) = p + exp(q*x + r), so high
profits drive debt-financed expansion and leverage can run away (a Minsky
blow-up); paths crossing a leverage threshold freeze there and report the
crossing time.  A run's result, `KeenResult`, is the shared
`sde.EulerPaths` with views of its leverage and Minsky events added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import warnings

import numpy as np

from .goodwin import GoodwinParams
from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi_noise, require_finite

__all__ = ["KeenParams", "KeenState", "KeenResult", "profit_function",
           "keen_drift", "simulate", "FIG4_PARAMS", "FIG5_PARAMS", "FIG6_PARAMS"]

EXP_CAP = 700.0     # profit exponents above this are capped against overflow


@dataclass(frozen=True)
class KeenParams:
    a: float
    b: float
    c: float
    d: float
    r_l: float
    nu_f: float
    p: float
    q: float
    r: float
    omega: float = 0.0
    sigma_s: float = 0.0
    sigma_lambda: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.nu_f <= 0:
            raise ValueError("nu_f must be positive")
        if self.q <= 0:
            raise ValueError("q must be positive (profit response is increasing)")


@dataclass(frozen=True)
class KeenState:
    s_w: float
    lambda_w: float
    gamma_f: float

    @property
    def s_f(self) -> float:
        return 1.0 - self.s_w


FIG4_PARAMS = KeenParams(a=0.225, b=0.20, c=0.075, d=0.03, r_l=0.03,
                         nu_f=0.1, p=-0.0065, q=20.0, r=-5.0)
FIG5_PARAMS = replace(FIG4_PARAMS, omega=0.005)
FIG6_PARAMS = replace(FIG5_PARAMS, sigma_s=0.005, sigma_lambda=0.005)


def _capped_profit(x, params: KeenParams):
    """f(x) = p + exp(min(q*x + r, EXP_CAP)) and the uncapped exponent."""
    arg = params.q * x + params.r
    return params.p + np.exp(np.minimum(arg, EXP_CAP)), arg


def profit_function(x, params: KeenParams):
    """Net-profit response f(x) = p + exp(q*x + r), exponent capped against overflow."""
    out, arg = _capped_profit(np.asarray(x, dtype=float), params)
    if np.any(arg > EXP_CAP):
        warnings.warn(
            f"profit exponent capped at {EXP_CAP} (max arg {np.max(arg):.3g})",
            stacklevel=2,
        )
    return float(out) if np.isscalar(x) else out


def _profit_share(s_f, g, params: KeenParams):
    """Net profit share after interest, s_f - r_l Gamma_f / nu_f: the argument of f."""
    return s_f - params.r_l * g / params.nu_f


def _drift(s, lam, g, s_f, fx, params: KeenParams, regularized: bool, with_nu_factor: bool):
    """Drift of (s_w, lambda_w, Gamma_f) on floats or path arrays, given
    s_f = 1 - s_w and fx = f(.)."""
    nu_fx = params.nu_f * fx
    scaled = nu_fx if with_nu_factor or not regularized else fx
    ds, dl = employment_drift(s, lam, scaled - params.c, params, regularized, s_f)
    dg = (params.r_l - nu_fx + params.d) * g + params.nu_f * (fx - s_f)
    return ds, dl, dg


def keen_drift(
    state: KeenState,
    params: KeenParams,
    regularized: bool = False,
    with_nu_factor: bool = True,
) -> tuple[float, float, float]:
    """Time derivative of (s_w, lambda_w, Gamma_f).

    Unregularized form uses nu_f*f(.) - c in the lambda_w drift; the
    regularized form keeps nu_f*f(.) when with_nu_factor (the default,
    dimensionally consistent with the unregularized system) and drops the
    nu_f factor otherwise, matching the two printed variants.  The leverage
    drift is identical in both.
    """
    s, lam, g = state.s_w, state.lambda_w, state.gamma_f
    fx = profit_function(_profit_share(state.s_f, g, params), params)
    if regularized and not (0 < s < 1 and 0 < lam < 1):
        raise ValueError("regularized drift requires interior (s_w, lambda_w)")
    return _drift(s, lam, g, state.s_f, fx, params, regularized, with_nu_factor)


def goodwin_equivalent(params: KeenParams) -> GoodwinParams:
    """Goodwin parameters reproducing the leverage-free Keen drift with f = identity."""
    return GoodwinParams(a=params.a, b=params.b,
                         c=params.nu_f - params.c, d=params.nu_f)


class KeenResult(EulerPaths):
    """The Euler run of (s_w, lambda_w, Gamma_f); the cap is the Minsky
    leverage threshold."""

    @property
    def gamma_f(self) -> np.ndarray:
        return self.records[2]

    @property
    def minsky_times(self) -> np.ndarray:
        """Per path; nan when the threshold was never hit."""
        return self.cap_times

    @property
    def minsky_paths(self) -> int:
        return int(np.sum(~np.isnan(self.minsky_times)))


def simulate(
    initial: KeenState,
    params: KeenParams,
    horizon: float,
    dt: float,
    paths: int = 1,
    stream: RngStream | None = None,
    regularized: bool | None = None,
    with_nu_factor: bool = True,
    gamma_cap: float = 10.0,
    record_stride: int = 1,
) -> KeenResult:
    """Euler paths of (s_w, lambda_w, Gamma_f).

    (s_w, lambda_w) are clamped as in the Goodwin module; Gamma_f is left
    free.  Paths whose leverage crosses gamma_cap freeze at the crossing
    ("Minsky event") and the crossing time is reported per path.
    """
    if regularized is None:
        regularized = params.omega > 0

    def drift(s, lam, g):
        s_f = 1.0 - s
        fx, _ = _capped_profit(_profit_share(s_f, g, params), params)
        return _drift(s, lam, g, s_f, fx, params, regularized, with_nu_factor)

    return KeenResult.run(drift, (initial.s_w, initial.lambda_w, initial.gamma_f),
                          horizon, dt, paths, stream,
                          jacobi_noise(params.sigma_s, params.sigma_lambda),
                          regularized, record_stride, cap=gamma_cap)
