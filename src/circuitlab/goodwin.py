"""Classical and regularized-stochastic Lotka-Volterra-Goodwin dynamics.

State is the pair (s_w, lambda_w): workers' output share and employment
rate.  The classical system is the predator-prey pair

    ds_w / s_w      = -(a - b*lambda_w) dt
    dlambda_w / lambda_w = (c - d*s_w) dt

The regularized system adds barrier terms omega/lambda_u and omega/s_f to
the drifts and Jacobi volatilities sigma*sqrt(x(1-x)) that vanish on the
boundary, confining paths to the open unit square.  A run's result,
`GoodwinResult`, is the shared `sde.EulerPaths` with nothing added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi_noise, require_finite

__all__ = ["GoodwinParams", "GoodwinState", "GoodwinResult",
           "classical_drift", "regularized_drift", "conservation",
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
        require_finite(self)
        for name in ("a", "b", "c", "d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.omega < 0 or self.sigma_s < 0 or self.sigma_lambda < 0:
            raise ValueError("omega and volatilities must be non-negative")

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

    @property
    def lambda_u(self) -> float:
        return 1.0 - self.lambda_w


# Figure presets: a, b, c, d from the representative parameter set.
FIG1_PARAMS = GoodwinParams(a=0.225, b=0.20, c=0.4, d=0.6)
FIG2_PARAMS = replace(FIG1_PARAMS, omega=0.005)
FIG3_PARAMS = replace(FIG2_PARAMS, sigma_s=0.015, sigma_lambda=0.005)


def _drift(s, lam, params: GoodwinParams, regularized: bool):
    """Drift of (s_w, lambda_w) on floats or path arrays: growth c - d*s_w."""
    return employment_drift(s, lam, params.c - params.d * s, params, regularized)


def classical_drift(state: GoodwinState, params: GoodwinParams) -> tuple[float, float]:
    """Time derivative of (s_w, lambda_w) for the unregularized system."""
    return _drift(state.s_w, state.lambda_w, params, regularized=False)


def _check_interior(state: GoodwinState) -> None:
    if not (0.0 < state.s_w < 1.0):
        raise ValueError(f"s_w={state.s_w} must lie strictly inside (0, 1)")
    if not (0.0 < state.lambda_w < 1.0):
        raise ValueError(f"lambda_w={state.lambda_w} must lie strictly inside (0, 1)")


def regularized_drift(state: GoodwinState, params: GoodwinParams) -> tuple[float, float]:
    """Drift with barrier terms omega/lambda_u and omega/s_f added."""
    _check_interior(state)
    return _drift(state.s_w, state.lambda_w, params, regularized=True)


def conservation(state: GoodwinState, params: GoodwinParams, regularized: bool = False) -> float:
    """Conserved quantity Psi along deterministic orbits.

    Classical:   -ln(s_w^c * lambda_w^a) + d*s_w + b*lambda_w
    Regularized: -ln(s_w^(c-omega) * s_f^omega * lambda_w^(a-omega) * lambda_u^omega)
                 + d*s_w + b*lambda_w
    """
    s, lam = state.s_w, state.lambda_w
    if s <= 0 or lam <= 0:
        raise ValueError("conservation requires positive s_w and lambda_w")
    if not regularized:
        return -(params.c * math.log(s) + params.a * math.log(lam)) \
            + params.d * s + params.b * lam
    if s >= 1 or lam >= 1:
        raise ValueError("regularized conservation requires the open unit square")
    w = params.omega
    return -((params.c - w) * math.log(s) + w * math.log(1.0 - s)
             + (params.a - w) * math.log(lam) + w * math.log(1.0 - lam)) \
        + params.d * s + params.b * lam


def fixed_point(params: GoodwinParams, regularized: bool = False) -> tuple[float, float]:
    """Stationary point of the drift; minimizer of the conservation law."""
    if not regularized or params.omega == 0.0:
        return params.c / params.d, params.a / params.b
    a, b, c, d, w = params.a, params.b, params.c, params.d, params.omega
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
    regularized: bool | None = None,
    record_stride: int = 1,
) -> GoodwinResult:
    """Euler paths of the Goodwin pair.

    regularized=None picks the regularized drift whenever omega > 0.
    Regularized/stochastic paths are clamped to [eps, 1-eps], eps =
    `sde.CLAMP_EPS`, after each step and clamp events are counted; classical
    runs are left free so boundary violations remain observable.
    record_stride > 1 thins the stored trajectory; extremes are still
    tracked per step.
    """
    if regularized is None:
        regularized = params.omega > 0
    return GoodwinResult.run(
        lambda s, lam: _drift(s, lam, params, regularized),
        (initial.s_w, initial.lambda_w), horizon, dt, paths, stream,
        jacobi_noise(params.sigma_s, params.sigma_lambda), regularized, record_stride)
