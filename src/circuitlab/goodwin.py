"""Classical and regularized-stochastic Lotka-Volterra-Goodwin dynamics.

State is the pair (s_w, lambda_w): workers' output share and employment
rate.  The classical system is the predator-prey pair

    ds_w / s_w      = -(a - b*lambda_w) dt
    dlambda_w / lambda_w = (c - d*s_w) dt

The regularized system adds barrier terms omega/lambda_u and omega/s_f to
the drifts and Jacobi volatilities sigma*sqrt(x(1-x)) that vanish on the
boundary, confining paths to the open unit square; omega > 0 picks it,
omega = 0 the classical system.  A run's result, `GoodwinResult`, is the
shared `sde.EulerPaths` with nothing added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi_noise, require_fields

__all__ = ["GoodwinParams", "GoodwinState", "GoodwinResult",
           "drift", "conservation",
           "fixed_point", "simulate", "FIG1_PARAMS", "FIG2_PARAMS", "FIG3_PARAMS"]


@dataclass(frozen=True)
class GoodwinParams:
    a: float
    b: float
    c: float
    d: float
    omega: float = 0.0
    sigma_s: float = 0.0
    sigma_lambda: float = 0.0

    def __post_init__(self) -> None:
        require_fields(self, positive=("a", "b", "c", "d"),
                       non_negative=("omega", "sigma_s", "sigma_lambda"))

    @classmethod
    def from_composites(cls, a: float, b: float, alpha: float, beta: float,
                        gamma: float, nu_f: float, xi_a: float, **kw) -> "GoodwinParams":
        """Assemble c = nu_f - (alpha+beta+gamma+xi_a), d = nu_f."""
        return cls(a=a, b=b, c=nu_f - (alpha + beta + gamma + xi_a), d=nu_f, **kw)


@dataclass(frozen=True)
class GoodwinState:
    s_w: float
    lambda_w: float

    @property
    def s_f(self) -> float:
        return 1.0 - self.s_w


# Figure presets: a, b, c, d from the representative parameter set.
FIG1_PARAMS = GoodwinParams(a=0.225, b=0.20, c=0.4, d=0.6)
FIG2_PARAMS = replace(FIG1_PARAMS, omega=0.005)
FIG3_PARAMS = replace(FIG2_PARAMS, sigma_s=0.015, sigma_lambda=0.005)


def _drift(x, params: GoodwinParams):
    """Drift block of (s_w, lambda_w), x of shape (2, paths): growth c - d*s_w."""
    return employment_drift(x, params.c - params.d * x[0], params, np.empty_like(x))


def drift(state: GoodwinState, params: GoodwinParams) -> tuple[float, float]:
    """Time derivative of (s_w, lambda_w); with omega > 0 the barrier terms
    omega/lambda_u and omega/s_f are added and the state must be interior."""
    if params.omega > 0 and not (0 < state.s_w < 1 and 0 < state.lambda_w < 1):
        raise ValueError("regularized drift requires interior (s_w, lambda_w)")
    ds, dl = _drift(np.array([[state.s_w], [state.lambda_w]]), params)[:, 0]
    return float(ds), float(dl)


def conservation(state: GoodwinState, params: GoodwinParams) -> float:
    """Conserved quantity Psi along deterministic orbits.

    omega = 0:  -ln(s_w^c * lambda_w^a) + d*s_w + b*lambda_w
    omega > 0:  -ln(s_w^(c-omega) * s_f^omega * lambda_w^(a-omega) * lambda_u^omega)
                + d*s_w + b*lambda_w
    """
    s, lam = state.s_w, state.lambda_w
    if s <= 0 or lam <= 0:
        raise ValueError("conservation requires positive s_w and lambda_w")
    w = params.omega
    if w == 0:
        return -(params.c * math.log(s) + params.a * math.log(lam)) \
            + params.d * s + params.b * lam
    if s >= 1 or lam >= 1:
        raise ValueError("regularized conservation requires the open unit square")
    return -((params.c - w) * math.log(s) + w * math.log(1.0 - s)
             + (params.a - w) * math.log(lam) + w * math.log(1.0 - lam)) \
        + params.d * s + params.b * lam


def fixed_point(params: GoodwinParams) -> tuple[float, float]:
    """Stationary point of the drift; minimizer of the conservation law."""
    a, b, c, d, w = params.a, params.b, params.c, params.d, params.omega
    if w == 0:
        return c / d, a / b
    s = (c + d - math.sqrt((c - d) ** 2 + 4.0 * d * w)) / (2.0 * d)
    lam = (a + b - math.sqrt((a - b) ** 2 + 4.0 * b * w)) / (2.0 * b)
    return s, lam


GoodwinResult = EulerPaths


def simulate(
    initial: GoodwinState,
    params: GoodwinParams,
    horizon: float,
    dt: float,
    paths: int = 1,
    stream: RngStream | None = None,
    record_stride: int = 1,
) -> GoodwinResult:
    """Euler paths of the Goodwin pair, classical when omega = 0 and
    regularized when omega > 0.

    Regularized/stochastic paths are clamped to [eps, 1-eps], eps =
    `sde.CLAMP_EPS`, after each step and clamp events are counted; classical
    deterministic runs are left free so boundary violations remain
    observable.  record_stride > 1 thins the stored trajectory; extremes are
    still tracked per step.
    """
    return GoodwinResult.run(
        lambda x: _drift(x, params),
        (initial.s_w, initial.lambda_w), horizon, dt, paths, stream,
        jacobi_noise(params.sigma_s, params.sigma_lambda), params.omega > 0, record_stride)
