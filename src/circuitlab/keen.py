"""Classical and regularized-stochastic Keen dynamics.

Adds firms' leverage Gamma_f = D_f / K_f to the Goodwin pair.  Investment
responds to the net profit share through f(x) = p + exp(q*x + r), so high
profits drive debt-financed expansion and leverage can run away (a Minsky
blow-up); paths crossing a leverage threshold freeze there and report the
crossing time; omega picks the classical or regularized system as in
`goodwin`.  A run's result, `KeenResult`, is the shared `sde.EulerPaths`
with views of its leverage and Minsky events added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import warnings

import numpy as np

from .goodwin import GoodwinParams
from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi_noise, require_fields

__all__ = ["KeenParams", "KeenState", "KeenResult", "profit_function",
           "keen_drift", "simulate", "FIG4_PARAMS", "FIG5_PARAMS", "FIG6_PARAMS"]

EXP_CAP = 700.0     # profit exponents above this are capped against overflow
# a path whose leverage Gamma_f crosses this freezes there (a Minsky event)
MINSKY_LEVERAGE = 10.0


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
        # q > 0: the profit response is increasing; omega > 0 selects the
        # regularized drift, so a negative one would run the classical drift
        require_fields(self, positive=("nu_f", "q"),
                       non_negative=("omega", "sigma_s", "sigma_lambda"))


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


def _drift(x, s_f, fx, params: KeenParams, with_nu_factor: bool):
    """Drift block of (s_w, lambda_w, Gamma_f), x of shape (3, paths), given
    s_f = 1 - s_w and fx = f(.)."""
    nu_fx = params.nu_f * fx
    scaled = nu_fx if with_nu_factor or params.omega == 0 else fx
    out = np.empty_like(x)
    employment_drift(x[:2], scaled - params.c, params, out[:2])
    np.multiply(params.r_l - nu_fx + params.d, x[2], out=out[2])
    out[2] += params.nu_f * (fx - s_f)
    return out


def keen_drift(
    state: KeenState,
    params: KeenParams,
    with_nu_factor: bool = True,
) -> tuple[float, float, float]:
    """Time derivative of (s_w, lambda_w, Gamma_f).

    With omega = 0 the lambda_w drift uses nu_f*f(.) - c; with omega > 0
    the barrier terms are added, (s_w, lambda_w) must be interior, and the
    drift keeps nu_f*f(.) when with_nu_factor (the default, dimensionally
    consistent with the classical system) and drops the nu_f factor
    otherwise, matching the two printed variants.  The leverage drift is
    identical in all.
    """
    s, lam, g = state.s_w, state.lambda_w, state.gamma_f
    fx = profit_function(_profit_share(state.s_f, g, params), params)
    if params.omega > 0 and not (0 < s < 1 and 0 < lam < 1):
        raise ValueError("regularized drift requires interior (s_w, lambda_w)")
    ds, dl, dg = _drift(np.array([[s], [lam], [g]]), state.s_f, fx, params,
                        with_nu_factor)[:, 0]
    return float(ds), float(dl), float(dg)


def goodwin_equivalent(params: KeenParams) -> GoodwinParams:
    """Goodwin parameters reproducing the leverage-free Keen drift with f = identity."""
    return GoodwinParams(a=params.a, b=params.b,
                         c=params.nu_f - params.c, d=params.nu_f)


class KeenResult(EulerPaths):
    """The Euler run of (s_w, lambda_w, Gamma_f); the cap is the Minsky
    leverage threshold."""

    COMPONENTS = ("s_w", "lambda_w", "gamma_f")

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
    with_nu_factor: bool = True,
    record_stride: int = 1,
) -> KeenResult:
    """Euler paths of (s_w, lambda_w, Gamma_f), classical when omega = 0
    and regularized when omega > 0.

    (s_w, lambda_w) are clamped as in the Goodwin module; Gamma_f is left
    free.  Paths whose leverage crosses MINSKY_LEVERAGE freeze at the
    crossing ("Minsky event") and the crossing time is reported per path.
    """
    def drift(x):
        s_f = 1.0 - x[0]
        fx, _ = _capped_profit(_profit_share(s_f, x[2], params), params)
        return _drift(x, s_f, fx, params, with_nu_factor)

    return KeenResult.run(drift, (initial.s_w, initial.lambda_w, initial.gamma_f),
                          horizon, dt, paths, stream,
                          jacobi_noise(params.sigma_s, params.sigma_lambda),
                          params.omega > 0, record_stride, cap=MINSKY_LEVERAGE)
