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

import numpy as np

from .rng import RngStream
from .sde import EulerPaths, employment_drift, jacobi, require_fields

__all__ = [
    "MmcParams", "MmcState", "MmcDerived", "MmcResult",
    "net_interest", "logistic", "derived_quantities",
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
    upsilon1: float         # weight on profit rate (checked >= 0: the index slope a needs it)
    upsilon2: float         # weight on deposits-to-assets (Fig 8 > 0, not checked)
    upsilon3: float         # weight on loans-to-assets (Fig 8 < 0, not checked)
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
        # omega > 0 selects the regularized employment drift, so a negative
        # one would run the classical drift without a word
        require_fields(self, positive=("nu_f",),
                       non_negative=("xi_delta", "xi_a", "r_d", "r_l", "kappa_c", "upsilon1",
                                     "omega", "sigma_c", "sigma_k", "sigma_s", "sigma_lambda"))
        for name in ("delta_rf", "delta_rb"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
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
        require_fields(self, positive=("theta_w", "n_w", "c_r", "k_f"),
                       non_negative=("d_r", "l_r", "d_f", "l_f"))
        stocks = (self.d_r, self.l_r, self.d_f, self.l_f, self.k_f)
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


# investment propensity this close to 1 is degenerate: the propensity
# saturates and flows ~ C_r/(1-u) blow up there
UPSILON_MAX = 1.0 - 1e-9
# the Lambert W0 evaluation starts from the branch-point series in
# p = sqrt(2 (1 + e x)); W0_HALLEY_STEPS Halley steps from there reach W0 on
# [-1/e, 0] to within 1.3e-14 absolute of mpmath, a gap that is the
# conditioning of W0 near the branch point, and to within 1.7e-16 from
# x = -0.3 on
W0_HALLEY_STEPS = 3


def _index_coeffs(c_r, d_f, l_f, k_f, p: MmcParams):
    """Coefficients of the propensity index z(u) = b + a / (1 - u): returns
    (a, b), so that dz/du = a / (1 - u)**2."""
    return (p.upsilon1 * c_r / (p.nu_f * k_f),
            p.upsilon0 + p.upsilon2 * d_f / k_f + p.upsilon3 * l_f / k_f)


def _lambert_w0(x):
    """Principal branch W0 of the Lambert function, w e^w = x, on [-1/e, 0]
    (Corless, Gonnet, Hare, Jeffrey & Knuth 1996, Adv. Comput. Math. 5),
    from the branch-point series alone.  Its error is absolute: for |x|
    below about 1e-10, where W0(x) ~ x, it is under 1e-23 but not small
    relative to W0; the propensity only adds W0 to the index."""
    p = np.sqrt(np.maximum(2.0 * (1.0 + np.e * x), 0.0))
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    for _ in range(W0_HALLEY_STEPS):
        ew, w1 = np.exp(w), w + 1.0
        f = w * ew - x
        # Halley's step f / (f' - f f'' / (2 f')), top and bottom times
        # 2 f' e^-w; the step is 0 at the branch point, where w = -1 and f = 0
        den = 2.0 * ew * w1 * w1 - (w + 2.0) * f
        w = w - np.divide(2.0 * w1 * f, den, out=np.zeros_like(w), where=den != 0.0)
    return w


def _upsilon_vec(c_r, d_f, l_f, k_f, params):
    """Stable-branch propensity in closed form, vectorised over paths: the
    model's one propensity solver, which the simulator runs on its rows and
    the scalar entry points on one state's.

    With v = u / (1 - u), u = logistic(b + a / (1 - u)) reads
    ln v = 2b + 2a (1 + v), whose roots are v = -W(x) / (2a) with
    x = -2a e^(2(a+b)).  The principal branch W0 gives the stable root,
    where phi' = -W0(x) < 1, and the branch W-1 the unstable one above it.
    A root exists exactly when x >= -1/e; past that fold the propensity is
    degenerate and UpsilonError is raised, as it is where the root rounds
    above UPSILON_MAX (a below about 1e-9 and b above about 10).  The index
    at the root is b + a (1 + v) = b + a - W0(x) / 2, so a = 0 gives
    logistic(b)."""
    a, b = _index_coeffs(c_r, d_f, l_f, k_f, params)
    with np.errstate(divide="ignore"):      # ln 0 = -inf where a = 0
        log_minus_x = np.log(2.0 * a) + 2.0 * (a + b)
    # x is capped at the fold so that a folded path's exponential stays finite
    u = logistic(b + a - 0.5 * _lambert_w0(-np.exp(np.minimum(log_minus_x, -1.0))))
    # one reduction each while every path is sound; a NaN index fails them
    if not (log_minus_x.max() <= -1.0 and u.max() <= UPSILON_MAX):
        bad = ~(log_minus_x <= -1.0) | (u > UPSILON_MAX)
        raise UpsilonError(f"degenerate investment propensity on {int(bad.sum())} path(s)")
    return u


def _state_upsilon(state: MmcState, params: MmcParams) -> np.ndarray:
    """The propensity at one state, shape (1,), as the simulator solves it
    on a path's row; every field must be finite, and K_f and C_r positive."""
    require_fields(state, positive=("k_f", "c_r"))
    return _upsilon_vec(*(np.array([getattr(state, k)]) for k in ("c_r", "d_f", "l_f", "k_f")),
                        params)


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
    simulator's propensity (below UPSILON_MAX, or UpsilonError)."""
    u = float(_state_upsilon(state, params)[0])
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
    """Drift block of the eleven components at investment propensity u.

    x is the state block, shape (11, paths), its rows in STOCK_NAMES order.
    Returns (drift, capital_ok, new_loans, capacity_capped), drift of x's
    shape: new-loan creation, the (-CF)^+ terms new_loans of the rentier and
    firm rows, runs only while K_b > nu_b (L_r + L_f)."""
    s_w, _, c_r, _, l_r, _, l_f, k_f, k_b = x[:9]
    # the rentier and firm rows side by side: deposits (D_r, D_f) are rows 3
    # and 5, loans (L_r, L_f) rows 4 and 6, and so are their drifts
    ni_r, ni_f = ni = net_interest(x[3:6:2], x[4:7:2], p)
    loans = l_r + l_f
    capital_ok = p.nu_b * loans - k_b < 0.0

    one_minus_u, s_f = 1.0 - u, 1.0 - s_w
    rentier_income = p.delta_bb * ni_r + (p.delta_rf - p.delta_rb) * ni_f
    base = (p.delta_ff - u) * c_r / one_minus_u
    cash_flow = np.empty_like(ni)      # (CF_r, CF_f)
    np.subtract(rentier_income - p.delta_rb * p.xi_delta * loans, base, out=cash_flow[0])
    np.add(p.delta_ff * ni_f, base, out=cash_flow[1])
    new_loans = np.maximum(-cash_flow, 0.0)
    c_bar = (p.alpha0 * (rentier_income + p.delta_rf * c_r / one_minus_u)
             + p.alpha1 * p.nu_f * k_f)
    invest = u * c_r
    drift = np.empty_like(x)
    employment_drift(x[:2], invest / (one_minus_u * p.nu_f * k_f) - p.c, p, drift[:2])
    np.multiply(p.kappa_c, c_bar - c_r, out=drift[2])
    np.maximum(cash_flow, 0.0, out=drift[3:6:2])
    np.add(-p.xi_delta * x[4:7:2], np.where(capital_ok, new_loans, 0.0), out=drift[4:7:2])
    np.subtract(invest / one_minus_u, p.xi_a * k_f, out=drift[7])
    np.multiply(-p.delta_bb, p.xi_delta * loans + ni_r + ni_f, out=drift[8])
    np.multiply(p.alpha, x[9], out=drift[9])
    np.multiply(p.beta, x[10], out=drift[10])
    return drift, capital_ok, new_loans, _output(c_r, one_minus_u, s_f) > p.nu_f * k_f


def _diffusion(x, p: MmcParams):
    """Noise loadings of the NOISE_NAMES components, in that order, on the
    state block x."""
    return np.array([[p.sigma_c], [p.sigma_k], [p.sigma_s], [p.sigma_lambda]]) * \
        np.concatenate([x[2:3], x[7:8], jacobi(x[:2])])


@dataclass
class MmcDrift:
    drift: dict[str, float]
    diffusion: dict[str, float]
    credit_crunch: bool
    unmet_financing: float
    capacity_capped: bool
    upsilon_f: float


def mmc_drift_and_diffusion(state: MmcState, params: MmcParams) -> MmcDrift:
    """Per-component drift and diffusion loadings of the closed system, at
    the simulator's propensity (below UPSILON_MAX, or UpsilonError).

    The capital-capacity switch zeroes new-loan creation (the (-CF)^+ terms)
    whenever K_b <= nu_b (L_r + L_f); the suppressed increment is reported
    as unmet financing demand.
    """
    u = _state_upsilon(state, params)
    x = np.array([[getattr(state, k)] for k in STOCK_NAMES])
    drift, capital_ok, new_loans, capped = _flows(x, u, params)
    unmet = np.where(capital_ok, 0.0, new_loans[0] + new_loans[1])
    return MmcDrift(drift=dict(zip(STOCK_NAMES, drift[:, 0].tolist())),
                    diffusion=dict(zip(NOISE_NAMES, _diffusion(x, params)[:, 0].tolist())),
                    credit_crunch=not capital_ok[0], unmet_financing=float(unmet[0]),
                    capacity_capped=bool(capped[0]), upsilon_f=float(u[0]))


@dataclass(eq=False)
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
    solved once per step, in closed form, and a path past the fold raises
    UpsilonError; the recorded rows' upsilon is solved after the run, and
    production and price are computed from the recorded rows.  New-loan
    terms are switched off during credit-crunch intervals; C_r is floored at
    C_R_FLOOR and the other FLOORED stocks at zero, and stock floors and
    unit-square clamps are counted.  The running maximum of the balance
    identity residual over every state is reported (meaningful while the
    crunch never binds); a NaN residual makes it NaN.
    """
    initial.validate()
    p = params
    crunch_steps = cap_steps = 0
    max_resid = 0.0

    def residual(x):
        _, _, _, d_r, l_r, d_f, l_f, _, k_b = x[:9]
        return np.abs(k_b - (l_r + l_f - d_r - d_f)).max()

    def drift(x):
        nonlocal crunch_steps, cap_steps, max_resid
        u = _upsilon_vec(x[2], x[5], x[6], x[7], p)
        flows, capital_ok, _, capped = _flows(x, u, p)
        crunch_steps += capital_ok.size - np.count_nonzero(capital_ok)
        cap_steps += np.count_nonzero(capped)
        max_resid = np.maximum(max_resid, residual(x))
        return flows

    stochastic = p.sigma_c > 0 or p.sigma_k > 0 or p.sigma_s > 0 or p.sigma_lambda > 0
    run = MmcResult.run(
        drift, tuple(getattr(initial, k) for k in STOCK_NAMES), horizon, dt, paths, stream,
        (lambda x: _diffusion(x, p)) if stochastic else None,
        True, record_stride,
        loaded=tuple(STOCK_NAMES.index(k) for k in NOISE_NAMES),
        floors={STOCK_NAMES.index(k): C_R_FLOOR if k == "c_r" else 0.0 for k in FLOORED})

    series = run.series
    c_r = series["c_r"]
    run.upsilon_f = upsilon = _upsilon_vec(c_r, series["d_f"], series["l_f"], series["k_f"], p)
    one_minus_u, s_f = 1.0 - upsilon, 1.0 - series["s_w"]
    run.y_f = np.minimum(_output(c_r, one_minus_u, s_f), p.nu_f * series["k_f"])
    run.price = c_r / (one_minus_u * s_f * series["lambda_w"]
                       * series["theta_w"] * series["n_w"])
    run.credit_crunch_steps, run.capacity_cap_steps = int(crunch_steps), int(cap_steps)
    last = np.array([rec[-1] for rec in run.records])
    run.max_identity_residual = float(np.maximum(max_resid, residual(last)))
    return run
