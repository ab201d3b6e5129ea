"""Single-bank balance-sheet flows, the shareholder cash-flow objective,
regulatory constraint evaluation, and constant-control grid search.

State (X, I, C, D, Y, E): loans, investments, cash, deposits, debt, equity.
The six flow equations are redundant by construction, so cash is evolved
and equity recomputed from the balance identity each step, while an
independently integrated equity path is kept as a consistency residual
(exactly zero under a common Euler discretization).

Constant controls may be arrays, run as one batch: every recorded path has
their broadcast shape plus a last time axis (scalars give 1-D paths), and
`cashflow_objective` and `constraints_report` give one value per row.  A
stochastic batch shares one normal per step (common random numbers), so
each row equals its controls' run alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import RngStream
from .sde import record_index, require_fields

__all__ = [
    "FlowParams", "FlowState", "Controls", "RegWeights", "Trajectory",
    "evolve", "cashflow_objective", "constraints_report",
    "constant_control_search",
]


@dataclass(frozen=True)
class FlowParams:
    lam: float          # loan repayment/loss rate
    mu: float           # debt repayment rate
    nu: float           # loan interest rate
    xi: float           # debt interest rate
    alpha: float        # deposit withdrawal rate
    beta: float         # deposit interest rate
    r: float            # investment growth rate
    zeta: float         # dividend yield on investments
    sigma: float        # investment volatility
    discount: float     # shareholder discount rate R
    t_lag: float = 1.0  # loan/debt maturity entering the lag terms

    def __post_init__(self) -> None:
        require_fields(self, non_negative=("lam", "mu", "nu", "xi", "alpha", "beta", "sigma",
                                           "discount", "t_lag"))


@dataclass(frozen=True)
class FlowState:
    x: float
    i: float
    c: float
    d: float
    y: float
    e: float

    def balance_residual(self) -> float:
        return self.x + self.i + self.c - self.d - self.y - self.e

    def total_assets(self) -> float:
        return self.x + self.i + self.c


@dataclass
class Controls:
    """Constant controls: scalars, or arrays that broadcast into a batch."""

    phi: float | np.ndarray = 0.0      # new loans
    psi: float | np.ndarray = 0.0      # new borrowings
    omega: float | np.ndarray = 0.0    # new investments
    pi: float | np.ndarray = 0.0       # new deposits
    delta: float | np.ndarray = 0.0    # dividends (<0 issues stock)


@dataclass(eq=False)
class Trajectory:
    """Recorded paths, shaped (control batch..., time)."""

    t: np.ndarray
    x: np.ndarray
    i: np.ndarray
    c: np.ndarray
    d: np.ndarray
    y: np.ndarray
    e: np.ndarray          # recomputed from the balance identity
    j: np.ndarray          # expected investments with dividends reinvested
    delta_path: np.ndarray
    max_consistency_residual: float   # worst |independently integrated E - identity E|
    params: FlowParams

    def state_at(self, k: int) -> FlowState:
        return FlowState(self.x[..., k], self.i[..., k], self.c[..., k],
                         self.d[..., k], self.y[..., k], self.e[..., k])


def evolve(
    initial: FlowState,
    params: FlowParams,
    controls: Controls,
    horizon: float,
    dt: float,
    stream: RngStream | None = None,
) -> Trajectory:
    """Euler integration of the six balance-sheet flow equations.

    Cash follows its flow equation and equity is recomputed from the balance
    identity; the equity flow equation is also integrated independently and
    its worst deviation over the batch reported (zero to rounding under
    shared Euler increments).  The run is stochastic exactly when a stream
    is given.  Array controls run as one batch: each path is shaped
    (broadcast control shape..., time), and a stochastic batch draws one
    normal per step for every row.  A non-finite initial field or control
    raises ValueError naming it."""
    require_fields(initial)
    for f in fields(controls):
        value = getattr(controls, f.name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"control {f.name} must be finite, got {value}")
    res0 = initial.balance_residual()
    if not abs(res0) <= 1e-10 * max(1.0, initial.total_assets()):
        raise ValueError(f"initial state violates the balance identity by {res0:.3g}")
    phi, psi, om, pv, dv = ctrl = [
        float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        for v in (controls.phi, controls.psi, controls.omega, controls.pi, controls.delta)]
    # net new loans and borrowings: today's issuance less the matured vintage
    cap_phi = phi - math.exp(-params.lam * params.t_lag) * phi
    cap_psi = psi - math.exp(-params.mu * params.t_lag) * psi
    t = record_index(horizon, dt, 1) * dt
    n = len(t) - 1
    shape = np.broadcast_shapes(*(np.shape(v) for v in ctrl)) + (n + 1,)
    out = {k: np.empty(shape) for k in ("x", "i", "c", "d", "y", "e", "e_indep", "j", "delta")}
    x, i_v, c, d, y = initial.x, initial.i, initial.c, initial.d, initial.y
    e_indep = initial.e
    j = initial.i
    gen = None if stream is None else stream.generator()
    sqdt = math.sqrt(dt)

    for k in range(n + 1):
        for path, value in zip(out.values(), (x, i_v, c, d, y, x + i_v + c - d - y,
                                              e_indep, j, dv)):
            path[..., k] = value
        if k == n:
            break

        di_noise = 0.0 if gen is None else params.sigma * i_v * sqdt * gen.standard_normal()

        dx = (-params.lam * x + cap_phi) * dt
        di = (params.r - params.zeta) * i_v * dt + om * dt + di_noise
        dc = ((params.lam + params.nu) * x - cap_phi
              + params.zeta * i_v - om
              - (params.alpha + params.beta) * d + pv
              - (params.mu + params.xi) * y + cap_psi - dv) * dt
        dd = (-params.alpha * d + pv) * dt
        dy = (-params.mu * y + cap_psi) * dt
        # independent equity increment E' = nu X + I' + zeta I - omega
        # - beta D - xi Y - delta, sharing the same Euler pieces as I
        de = params.nu * x * dt + di + params.zeta * i_v * dt - om * dt \
            - params.beta * d * dt - params.xi * y * dt - dv * dt
        dj = (params.r * j + om) * dt

        x, i_v, c, d, y = x + dx, i_v + di, c + dc, d + dd, y + dy
        e_indep, j = e_indep + de, j + dj

    worst = float(np.max(np.abs(out["e_indep"] - out["e"]), initial=0.0))
    return Trajectory(t=t, x=out["x"], i=out["i"], c=out["c"], d=out["d"],
                      y=out["y"], e=out["e"], j=out["j"], delta_path=out["delta"],
                      max_consistency_residual=worst, params=params)


def cashflow_objective(traj: Trajectory, params: FlowParams | None = None):
    """Discounted shareholder cash flow CF(T): trapezoidal quadrature of
    e^{-RT} (nu X + r J - beta D - xi Y + (e^{-R(t-T)} - 1) delta) over the
    last (time) axis: a float for 1-D paths, else the leading control shape."""
    p = params or traj.params
    t = traj.t
    horizon = t[-1]
    integrand = (p.nu * traj.x + p.r * traj.j - p.beta * traj.d
                 - p.xi * traj.y
                 + (np.exp(-p.discount * (t - horizon)) - 1.0) * traj.delta_path)
    out = math.exp(-p.discount * horizon) * np.trapezoid(integrand, t)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class RegWeights:
    rwa: float = 0.0          # standard-model risk weight on loans
    kappa: float = 0.0        # capital ratio
    k2: float = 0.0           # counterparty risk add-on
    k3: float = 0.0           # operational risk add-on
    k4: float = 0.0           # market risk add-on
    rsf_x: float = 0.0
    rsf_i: float = 0.0
    asf_d: float = 0.0
    asf_y: float = 0.0
    co_d: float = 0.0
    co_y: float = 0.0
    ci_x: float = 0.0
    ci_i: float = 0.0

    def __post_init__(self) -> None:
        require_fields(self, non_negative=("rwa", "rsf_x", "rsf_i", "asf_d", "asf_y",
                                           "co_d", "co_y", "ci_x", "ci_i"))
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError("kappa must lie in [0, 1)")


@dataclass(eq=False)
class ConstraintReport:
    funding_slack: float      # ASF - RSF
    liquidity_slack: float    # CI - CO
    capital_slack: float      # E - K
    required_capital: float

    @property
    def all_pass(self):
        return (self.funding_slack > 0) & (self.liquidity_slack > 0) & (self.capital_slack > 0)

    @property
    def min_slack(self):
        return np.minimum(np.minimum(self.funding_slack, self.liquidity_slack),
                          self.capital_slack)


def constraints_report(state: FlowState | Trajectory, weights: RegWeights) -> ConstraintReport:
    """Stable-funding, 30-day liquidity, and capital checks with slacks,
    elementwise: on a whole Trajectory each slack has its paths' shape
    (control axes..., time)."""
    w = weights
    asf = w.asf_d * state.d + w.asf_y * state.y + state.e
    rsf = w.rsf_x * state.x + w.rsf_i * state.i
    ci = w.ci_x * state.x + w.ci_i * state.i + state.c
    co = w.co_d * state.d + w.co_y * state.y
    k = w.kappa * (w.rwa * state.x) + w.k2 + w.k3 + w.k4
    return ConstraintReport(
        funding_slack=asf - rsf,
        liquidity_slack=ci - co,
        capital_slack=state.e - k,
        required_capital=k,
    )


@dataclass
class SearchRecord:
    controls: dict[str, float]
    cashflow: float
    feasible: bool
    min_slack: float          # smallest constraint slack over every step


@dataclass
class SearchResult:
    best: SearchRecord | None
    table: list[SearchRecord]

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.table if r.feasible)


def constant_control_search(
    initial: FlowState,
    params: FlowParams,
    weights: RegWeights,
    horizon: float,
    dt: float,
    grid: dict[str, np.ndarray],
) -> SearchResult:
    """Exhaustive grid over constant controls, maximizing deterministic
    CF(T) subject to the regulatory constraints holding at every step.

    The whole grid is one batched `evolve` run.  The table lists the
    controls in `itertools.product` order over (phi, psi, omega, pi,
    delta); the best record is the first maximum among feasible ones.  An
    empty feasible set is reported, not raised; a grid key outside those
    five raises ValueError naming it."""
    names = ("phi", "psi", "omega", "pi", "delta")
    unknown = sorted(set(grid) - set(names))
    if unknown:
        raise ValueError(f"grid keys {unknown} are not controls; expected some of {names}")
    axes = [np.atleast_1d(np.asarray(grid.get(n, [0.0]), dtype=float)) for n in names]
    mesh = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    traj = evolve(initial, params, Controls(**dict(zip(names, mesh))), horizon, dt)
    report = constraints_report(traj, weights)
    feasible = np.all(report.all_pass, axis=-1)
    min_slack = np.min(report.min_slack, axis=-1)
    cashflow = cashflow_objective(traj, params)
    rows = zip(zip(*(m.tolist() for m in mesh)), cashflow.tolist(), feasible.tolist(),
               min_slack.tolist())
    table = [SearchRecord(dict(zip(names, ctrl)), cf, ok, slack) for ctrl, cf, ok, slack in rows]
    candidates = np.flatnonzero(feasible)
    best = table[candidates[np.argmax(cashflow[candidates])]] if candidates.size else None
    return SearchResult(best=best, table=table)
