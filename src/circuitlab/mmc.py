"""Closed stochastic monetary-circuit system for rentiers, firms, and banks.

Stocks: rentier consumption C_r, deposits/loans D_r, L_r, D_f, L_f, firms'
physical assets K_f, and bank capital K_b, coupled to the regularized
employment block (theta_w, N_w, s_w, lambda_w) and the diagnostic price
level P.  Bank capital is the balancing item K_b = L_r + L_f - D_r - D_f;
with the capital-capacity constraint slack this identity propagates exactly
under the printed drifts, which the test suite asserts step by step.

Sign conventions: positive rentier/firm cash flow adds to deposits, negative
cash flow is financed by new loans, and new-loan creation is switched off
while the banking sector's capital capacity is exhausted (credit crunch).

A run's result, `MmcResult`, is the shared `sde.EulerPaths` of the eleven
components, with their records by name and what the run derives from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi, record_index, require_finite

__all__ = [
    "MmcParams", "MmcState", "MmcDerived", "MmcResult",
    "net_interest", "logistic", "solve_upsilon", "derived_quantities",
    "mmc_drift_and_diffusion", "simulate", "FIG8_PARAMS", "FIG8_STATE",
]

# relative tolerance of the balance identity on an initial sheet: rounding
# of the stocks, not a modelling slack
IDENTITY_TOL = 1e-9
# C_r is floored just above zero: the state and the upsilon solve need C_r > 0
C_R_FLOOR = 1e-9


def net_interest(deposits: float, loans: float, params: "MmcParams") -> float:
    """Net interest flow r_D * D - r_L * L."""
    return params.r_d * deposits - params.r_l * loans


def logistic(x):
    """Squashing map onto (0, 1): 1 / (1 + exp(-2x))."""
    return 1.0 / (1.0 + np.exp(-2.0 * np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class MmcParams:
    kappa_c: float          # consumption mean-reversion rate
    sigma_c: float          # consumption volatility
    sigma_k: float          # physical-asset volatility
    alpha0: float           # consumption-target weight on distributed income
    alpha1: float           # consumption-target weight on capital productivity
    upsilon0: float         # investment-propensity intercept
    upsilon1: float         # weight on profit rate (> 0)
    upsilon2: float         # weight on deposits-to-assets (> 0)
    upsilon3: float         # weight on loans-to-assets (< 0)
    delta_rf: float         # rentiers' share of firms' profits
    delta_rb: float         # rentiers' share of banks' profits
    xi_delta: float         # default rate
    xi_a: float             # amortization rate
    r_d: float              # deposit rate
    r_l: float              # loan rate
    nu_f: float             # production rate
    nu_b: float             # capital adequacy ratio
    a: float                # employment-block coefficients
    b: float
    c: float
    omega: float = 0.0
    sigma_s: float = 0.0
    sigma_lambda: float = 0.0
    alpha: float = 0.02     # productivity growth (price diagnostics only)
    beta: float = 0.01      # workforce growth (price diagnostics only)

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("delta_rf", "delta_rb"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("xi_delta", "xi_a", "r_d", "r_l", "kappa_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.nu_f <= 0:
            raise ValueError("nu_f must be positive")
        if not 0.0 < self.nu_b < 1.0:
            raise ValueError("nu_b must lie in (0, 1)")

    @property
    def delta_ff(self) -> float:
        return 1.0 - self.delta_rf

    @property
    def delta_bb(self) -> float:
        return 1.0 - self.delta_rb


@dataclass
class MmcState:
    c_r: float
    d_r: float
    l_r: float
    d_f: float
    l_f: float
    k_f: float
    k_b: float
    theta_w: float = 1.0
    n_w: float = 100.0
    s_w: float = 0.7
    lambda_w: float = 0.95

    def balance_residual(self) -> float:
        """K_b - (L_r + L_f - D_r - D_f); zero on a consistent sheet."""
        return self.k_b - (self.l_r + self.l_f - self.d_r - self.d_f)

    def validate(self) -> None:
        stocks = (self.d_r, self.l_r, self.d_f, self.l_f, self.k_f)
        if any(s < 0 for s in stocks):
            raise ValueError("stocks must be non-negative")
        if self.c_r <= 0:
            raise ValueError("C_r must be positive")
        if not (0 < self.s_w < 1 and 0 < self.lambda_w < 1):
            raise ValueError("(s_w, lambda_w) must lie inside the unit square")
        scale = max(abs(v) for v in stocks) + abs(self.k_b) + 1.0
        res = self.balance_residual()
        if abs(res) > IDENTITY_TOL * scale:
            raise ValueError(
                f"initial sheet violates K_b = L_r+L_f-D_r-D_f, residual {res:.6g}"
            )


# Representative non-stochastic circuit scenario (second upsilon_0 entry in
# the source listing read as upsilon_3, which must be negative).
FIG8_PARAMS = MmcParams(
    kappa_c=0.5, sigma_c=0.0, sigma_k=0.0, alpha0=0.5, alpha1=0.5,
    upsilon0=-1.6, upsilon1=1.1, upsilon2=0.1, upsilon3=-0.2,
    delta_rf=0.75, delta_rb=0.5, xi_delta=0.025, xi_a=0.02,
    r_d=0.02, r_l=0.04, nu_f=0.13, nu_b=0.1,
    a=0.05, b=0.05, c=0.075, omega=0.005,
)
FIG8_STATE = MmcState(c_r=3.0, d_r=30.0, l_r=20.0, d_f=20.0, l_f=50.0,
                      k_f=40.0, k_b=20.0, s_w=0.7, lambda_w=0.95)


class UpsilonError(RuntimeError):
    pass


# investment propensity this close to 1 means the self-consistency map has
# no interior fixed point (the propensity saturates); flows ~ C_r/(1-u)
# degenerate there
UPSILON_MAX = 1.0 - 1e-9
# upsilon solves stop once a step is below UPSILON_TOL; the damped fixed
# point may need UPSILON_MAX_ITER iterations where phi' approaches 1, Newton
# a handful
UPSILON_TOL = 1e-12
UPSILON_MAX_ITER = 200


def _index_coeffs(c_r, d_f, l_f, k_f, p: MmcParams):
    """Coefficients of the propensity index z(u) = b + a / (1 - u): returns
    (a, b), so that dz/du = a / (1 - u)**2."""
    return (p.upsilon1 * c_r / (p.nu_f * k_f),
            p.upsilon0 + p.upsilon2 * d_f / k_f + p.upsilon3 * l_f / k_f)


def solve_upsilon(
    state: MmcState,
    params: MmcParams,
    mode: Literal["one-step", "fixed-point", "newton"] = "fixed-point",
) -> float:
    """Investment propensity upsilon_f in (0, 1).

    upsilon_f is the root of u = phi(u), phi = logistic(z(u)), on the stable
    branch phi'(u) < 1.  The map has at most two roots (in v = u / (1 - u)
    the condition reads ln v = 2 z, and ln v - 2 z is concave in v): the
    stable one and, above it, an unstable one with phi' > 1.  Past the fold,
    where no root exists, the propensity is degenerate and UpsilonError is
    raised.

    one-step evaluates the single-iteration approximation seeded at
    logistic(upsilon_0); fixed-point damps the self-consistency map by 0.5,
    which converges only to the stable root; newton runs the safeguarded
    Newton iteration of the simulator, which accepts a root only where
    phi' < 1.
    """
    if state.k_f <= 0:
        raise ValueError("K_f must be positive")
    if state.c_r <= 0:
        raise ValueError("C_r must be positive")
    sheet = (state.c_r, state.d_f, state.l_f, state.k_f)
    a, b = _index_coeffs(*sheet, params)

    u = float(logistic(params.upsilon0))
    if mode == "one-step":
        return float(logistic(b + a / (1.0 - u)))
    if mode == "fixed-point":
        for _ in range(UPSILON_MAX_ITER):
            step = 0.5 * (float(logistic(b + a / (1.0 - u))) - u)
            u += step
            if u > UPSILON_MAX:
                raise UpsilonError(
                    f"degenerate investment propensity: upsilon_f saturated at {u}"
                )
            if abs(step) < UPSILON_TOL:
                return u
        raise UpsilonError(
            f"fixed-point iteration did not converge; last step {step:.3e}"
        )
    if mode == "newton":
        return float(_upsilon_vec(np.array([u]), *sheet, params)[0])
    raise ValueError(f"unknown mode {mode!r}")


def _newton(u, a, b):
    """Newton on g(u) = phi(u) - u, vectorized over paths, from u.

    Each path stops at its first |step| < UPSILON_TOL or once it leaves
    (0, UPSILON_MAX), so its iterate is the one it would reach alone.
    u, a and b share one shape.  Returns the iterates and the paths accepted
    there: converged, inside the range, and on the stable branch phi' < 1."""
    u = np.array(u, dtype=float)
    step, slope = np.empty_like(u), np.empty_like(u)
    live = np.arange(u.size)
    ul, al, bl = u, a, b        # the paths still iterating
    for _ in range(UPSILON_MAX_ITER):
        w = 1.0 / (1.0 - ul)
        phi = logistic(bl + al * w)
        sl = 2.0 * phi * (1.0 - phi) * al * w * w      # phi'(u)
        st = (phi - ul) / (1.0 - sl)
        ul = ul + st
        u[live], step[live], slope[live] = ul, st, sl
        go = (ul > 0.0) & (ul < UPSILON_MAX) & (np.abs(st) >= UPSILON_TOL)
        if not go.all():
            if not go.any():
                break
            live, ul, al, bl = live[go], ul[go], al[go], bl[go]
    return u, (u > 0.0) & (u < UPSILON_MAX) & (np.abs(step) < UPSILON_TOL) & (slope < 1.0)


def _upsilon_vec(u, c_r, d_f, l_f, k_f, params):
    """Stable-branch propensity by Newton, vectorized over paths, warm-started
    at u.  A path whose warm start leaves (0, 1), stalls or lands where
    phi' >= 1 restarts from u = 0: g(0) > 0 and g is convex while phi < 1/2,
    so Newton climbs from there to the lower, stable root.  Each path's root
    is the one it would reach alone."""
    a, b, u = np.broadcast_arrays(*_index_coeffs(c_r, d_f, l_f, k_f, params), u)
    u, ok = _newton(u, a, b)
    if not ok.all():
        redo = ~ok
        u[redo], ok[redo] = _newton(np.zeros(a[redo].shape), a[redo], b[redo])
        if not ok.all():
            raise UpsilonError(
                f"degenerate investment propensity on {int((~ok).sum())} path(s)"
            )
    return u


@dataclass
class MmcDerived:
    ni_r: float
    ni_f: float
    upsilon_f: float
    gamma_f: float
    y_f: float              # uncapped production (enters the accounting identities)
    y_f_capped: float
    capacity_capped: bool
    i_f: float
    u_f: float
    c_w: float
    pi_f_total: float
    pi_f_dist: float
    pi_f_undist: float
    pi_b_total: float
    pi_b_dist: float
    pi_b_undist: float
    profit_rate: float
    cf_r: float
    cf_f: float
    sigma_r: float
    price: float


def derived_quantities(state: MmcState, params: MmcParams) -> MmcDerived:
    """All intermediate flows implied by the current stocks, at the
    fixed-point propensity (below UPSILON_MAX, or UpsilonError)."""
    u = solve_upsilon(state, params)
    s_f = 1.0 - state.s_w
    ni_r = net_interest(state.d_r, state.l_r, params)
    ni_f = net_interest(state.d_f, state.l_f, params)
    y_f = state.c_r / ((1.0 - u) * s_f)
    cap = params.nu_f * state.k_f
    capped = y_f > cap
    i_f = u * state.c_r / (1.0 - u)
    u_f = y_f / cap
    c_w = state.s_w * y_f
    pi_f = state.c_r / (1.0 - u) + ni_f
    pi_b = -params.xi_delta * (state.l_r + state.l_f) - ni_r - ni_f
    cf_r = ni_r + params.delta_rf * pi_f + params.delta_rb * pi_b - state.c_r
    cf_f = params.delta_ff * pi_f - u * s_f * y_f
    sigma_r = (state.d_r - state.l_r + state.k_f + state.d_f - state.l_f
               + state.k_b)
    price = state.c_r / ((1.0 - u) * s_f * state.lambda_w
                         * state.theta_w * state.n_w)
    return MmcDerived(
        ni_r=ni_r, ni_f=ni_f, upsilon_f=u, gamma_f=u * s_f,
        y_f=y_f, y_f_capped=min(y_f, cap), capacity_capped=bool(capped),
        i_f=i_f, u_f=u_f, c_w=c_w,
        pi_f_total=pi_f, pi_f_dist=params.delta_rf * pi_f,
        pi_f_undist=params.delta_ff * pi_f,
        pi_b_total=pi_b, pi_b_dist=params.delta_rb * pi_b,
        pi_b_undist=params.delta_bb * pi_b,
        profit_rate=pi_f / state.k_f, cf_r=cf_r, cf_f=cf_f,
        sigma_r=sigma_r, price=price,
    )


# the employment pair first: EulerPaths.run clamps the first two components
STOCK_NAMES = ("s_w", "lambda_w", "c_r", "d_r", "l_r", "d_f", "l_f", "k_f",
               "k_b", "theta_w", "n_w")
# components loaded with noise, in the order of the simulator's normals
NOISE_NAMES = ("c_r", "k_f", "s_w", "lambda_w")
# stocks held non-negative (C_r positive) by a floor after each step
FLOORED = ("c_r", "d_r", "l_r", "d_f", "l_f", "k_f")


def _output(c_r, one_minus_u, s_f):
    """Uncapped production Y_f = C_r / ((1 - upsilon_f) s_f)."""
    return c_r / (one_minus_u * s_f)


def _flows(x, u, p: MmcParams):
    """Drifts of the eleven components at investment propensity u.

    x maps STOCK_NAMES to floats or path arrays.  Returns (drift,
    capital_ok, unmet, capacity_capped): new-loan creation, the (-CF)^+
    terms, runs only while K_b > nu_b (L_r + L_f), and the suppressed
    increment is the unmet financing demand."""
    c_r, l_r, l_f, k_f = x["c_r"], x["l_r"], x["l_f"], x["k_f"]
    ni_r = net_interest(x["d_r"], l_r, p)
    ni_f = net_interest(x["d_f"], l_f, p)
    loans = l_r + l_f
    capital_ok = p.nu_b * loans - x["k_b"] < 0.0

    one_minus_u, s_f = 1.0 - u, 1.0 - x["s_w"]
    rentier_income = p.delta_bb * ni_r + (p.delta_rf - p.delta_rb) * ni_f
    base = (p.delta_ff - u) * c_r / one_minus_u
    cf_r = rentier_income - p.delta_rb * p.xi_delta * loans - base
    cf_f = p.delta_ff * ni_f + base
    new_l_r = np.maximum(-cf_r, 0.0)
    new_l_f = np.maximum(-cf_f, 0.0)
    unmet = np.where(capital_ok, 0.0, new_l_r + new_l_f)
    c_bar = (p.alpha0 * (rentier_income + p.delta_rf * c_r / one_minus_u)
             + p.alpha1 * p.nu_f * k_f)
    ds, dl = employment_drift(x["s_w"], x["lambda_w"],
                              u * c_r / (one_minus_u * p.nu_f * k_f) - p.c, p,
                              regularized=True, s_f=s_f)
    drift = {
        "c_r": p.kappa_c * (c_bar - c_r),
        "d_r": np.maximum(cf_r, 0.0),
        "l_r": -p.xi_delta * l_r + np.where(capital_ok, new_l_r, 0.0),
        "d_f": np.maximum(cf_f, 0.0),
        "l_f": -p.xi_delta * l_f + np.where(capital_ok, new_l_f, 0.0),
        "k_f": u * c_r / one_minus_u - p.xi_a * k_f,
        "k_b": -p.delta_bb * (p.xi_delta * loans + ni_r + ni_f),
        "theta_w": p.alpha * x["theta_w"],
        "n_w": p.beta * x["n_w"],
        "s_w": ds,
        "lambda_w": dl,
    }
    return drift, capital_ok, unmet, _output(c_r, one_minus_u, s_f) > p.nu_f * k_f


def _diffusion(x, p: MmcParams):
    """Noise loadings of the NOISE_NAMES components, in that order."""
    return [p.sigma_c * x["c_r"], p.sigma_k * x["k_f"],
            p.sigma_s * jacobi(x["s_w"]), p.sigma_lambda * jacobi(x["lambda_w"])]


@dataclass
class MmcDrift:
    drift: dict[str, float]
    diffusion: dict[str, float]
    credit_crunch: bool
    unmet_financing: float
    capacity_capped: bool
    upsilon_f: float


def mmc_drift_and_diffusion(state: MmcState, params: MmcParams,
                            upsilon: float | None = None) -> MmcDrift:
    """Per-component drift and diffusion loadings of the closed system.

    The capital-capacity switch zeroes new-loan creation (the (-CF)^+ terms)
    whenever K_b <= nu_b (L_r + L_f); the suppressed increment is reported
    as unmet financing demand.
    """
    u = solve_upsilon(state, params) if upsilon is None else upsilon
    x = {k: getattr(state, k) for k in STOCK_NAMES}
    drift, capital_ok, unmet, capped = _flows(x, u, params)
    return MmcDrift(drift={k: float(v) for k, v in drift.items()},
                    diffusion={k: float(v) for k, v in zip(NOISE_NAMES, _diffusion(x, params))},
                    credit_crunch=not capital_ok, unmet_financing=float(unmet),
                    capacity_capped=bool(capped), upsilon_f=u)


@dataclass
class MmcResult(EulerPaths):
    """The Euler run of the STOCK_NAMES components, in that order, and what
    the simulator derives from it: the propensity of each recorded row,
    capped production and price on those rows, the crunch and capacity
    step counts, and the largest identity residual."""

    upsilon_f: np.ndarray = field(init=False)
    y_f: np.ndarray = field(init=False)
    price: np.ndarray = field(init=False)
    credit_crunch_steps: int = field(init=False)
    capacity_cap_steps: int = field(init=False)
    max_identity_residual: float = field(init=False)

    @property
    def series(self) -> dict[str, np.ndarray]:
        """Each component's record, by name."""
        return dict(zip(STOCK_NAMES, self.records))

    def state_at(self, idx: int, path: int = 0) -> MmcState:
        return MmcState(**{k: float(v[idx, path]) for k, v in self.series.items()})


def simulate(
    initial: MmcState,
    params: MmcParams,
    horizon: float,
    dt: float,
    paths: int = 1,
    stream: RngStream | None = None,
    record_stride: int = 1,
) -> MmcResult:
    """Joint Euler evolution of the circuit stocks, the employment block, and
    the diagnostic price level, stepped by `sde.EulerPaths.run`.

    The initial sheet must satisfy K_b = L_r + L_f - D_r - D_f.  Upsilon is
    solved once per step, warm-started at the previous step's root; a
    recorded row keeps the upsilon of the step that leaves it (the last
    row's is solved after the run), and production and price are computed
    from the recorded rows.  New-loan terms are switched off during
    credit-crunch intervals; C_r is floored at C_R_FLOOR and the other
    FLOORED stocks at zero, and stock floors and unit-square clamps are
    counted.  The running maximum of the balance identity residual over
    every state is reported (meaningful while the crunch never binds).
    """
    rows = record_index(horizon, dt, record_stride)
    initial.validate()
    p = params
    # every path starts from the same sheet, so one solve seeds them all
    u = solve_upsilon(initial, p, mode="newton")
    ups: list[np.ndarray] = []
    step = crunch_steps = cap_steps = 0
    max_resid = 0.0

    def residual(x):
        return float(np.abs(x["k_b"] - (x["l_r"] + x["l_f"] - x["d_r"] - x["d_f"])).max())

    def drift(*state):
        nonlocal u, step, crunch_steps, cap_steps, max_resid
        x = dict(zip(STOCK_NAMES, state))
        u = _upsilon_vec(u, x["c_r"], x["d_f"], x["l_f"], x["k_f"], p)
        if step == rows[len(ups)]:
            ups.append(u)
        step += 1
        flows, capital_ok, _, capped = _flows(x, u, p)
        crunch_steps += int((~capital_ok).sum())
        cap_steps += int(capped.sum())
        max_resid = max(max_resid, residual(x))
        return [flows[k] for k in STOCK_NAMES]

    stochastic = p.sigma_c > 0 or p.sigma_k > 0 or p.sigma_s > 0 or p.sigma_lambda > 0
    run = MmcResult.run(
        drift, tuple(getattr(initial, k) for k in STOCK_NAMES), horizon, dt, paths, stream,
        (lambda x: _diffusion(dict(zip(STOCK_NAMES, x)), p)) if stochastic else None,
        True, record_stride,
        loaded=tuple(STOCK_NAMES.index(k) for k in NOISE_NAMES),
        floors={STOCK_NAMES.index(k): C_R_FLOOR if k == "c_r" else 0.0 for k in FLOORED})

    series = run.series
    last = {k: v[-1] for k, v in series.items()}
    ups.append(_upsilon_vec(u, last["c_r"], last["d_f"], last["l_f"], last["k_f"], p))
    run.upsilon_f = upsilon = np.array(ups)
    c_r, one_minus_u, s_f = series["c_r"], 1.0 - upsilon, 1.0 - series["s_w"]
    run.y_f = np.minimum(_output(c_r, one_minus_u, s_f), p.nu_f * series["k_f"])
    run.price = c_r / (one_minus_u * s_f * series["lambda_w"]
                       * series["theta_w"] * series["n_w"])
    run.credit_crunch_steps, run.capacity_cap_steps = crunch_steps, cap_steps
    run.max_identity_residual = max(max_resid, residual(last))
    return run
