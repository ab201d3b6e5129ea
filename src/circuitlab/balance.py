"""Single-bank balance-sheet flows, the shareholder cash-flow objective,
regulatory constraint evaluation, and constant-control grid search.

State (X, I, C, D, Y, E): loans, investments, cash, deposits, debt, equity.
The six flow equations are redundant by construction, so cash is evolved
and equity recomputed from the balance identity each step, while an
independently integrated equity path is kept as a consistency residual
(exactly zero under a common Euler discretization).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RngStream

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
        for name in ("lam", "mu", "nu", "xi", "alpha", "beta", "sigma",
                     "discount", "t_lag"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


def _as_fn(v) -> Callable[[float], float]:
    return v if callable(v) else (lambda t, _v=float(v): _v)


@dataclass
class Controls:
    """Control paths; scalars mean constant controls.  Pre-history before
    t = 0 defaults to the t = 0 value for the lag terms."""

    phi: float | Callable[[float], float] = 0.0      # new loans
    psi: float | Callable[[float], float] = 0.0      # new borrowings
    omega: float | Callable[[float], float] = 0.0    # new investments
    pi: float | Callable[[float], float] = 0.0       # new deposits
    delta: float | Callable[[float], float] = 0.0    # dividends (<0 issues stock)

    def bound(self):
        phi = _as_fn(self.phi)
        psi = _as_fn(self.psi)

        def phi_hist(t):
            return phi(t) if t >= 0.0 else phi(0.0)

        def psi_hist(t):
            return psi(t) if t >= 0.0 else psi(0.0)

        return phi_hist, psi_hist, _as_fn(self.omega), _as_fn(self.pi), _as_fn(self.delta)


def lagged_loan_inflow(phi, t: float, params: FlowParams) -> float:
    """Net new-loan flow: today's issuance less matured vintage."""
    return phi(t) - math.exp(-params.lam * params.t_lag) * phi(t - params.t_lag)


def lagged_borrow_inflow(psi, t: float, params: FlowParams) -> float:
    return psi(t) - math.exp(-params.mu * params.t_lag) * psi(t - params.t_lag)


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    i: np.ndarray
    c: np.ndarray
    d: np.ndarray
    y: np.ndarray
    e: np.ndarray          # recomputed from the balance identity
    j: np.ndarray          # expected investments with dividends reinvested
    delta_path: np.ndarray
    max_consistency_residual: float   # |independently integrated E - identity E|
    params: FlowParams

    def state_at(self, k: int) -> FlowState:
        return FlowState(self.x[k], self.i[k], self.c[k],
                         self.d[k], self.y[k], self.e[k])


def evolve(
    initial: FlowState,
    params: FlowParams,
    controls: Controls,
    horizon: float,
    dt: float,
    stochastic: bool = False,
    stream: RngStream | None = None,
) -> Trajectory:
    """Euler integration of the six balance-sheet flow equations.

    Cash follows its flow equation and equity is recomputed from the balance
    identity; the equity flow equation is also integrated independently and
    the worst deviation reported (zero to rounding under shared Euler
    increments, which the acceptance suite asserts).
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    res0 = initial.balance_residual()
    if abs(res0) > 1e-10 * max(1.0, initial.total_assets()):
        raise ValueError(f"initial state violates the balance identity by {res0:.3g}")
    phi, psi, omega, pi, delta = controls.bound()
    n = int(round(horizon / dt))
    t = np.arange(n + 1) * dt
    out = {k: np.empty(n + 1) for k in "xicdyej"}
    dpath = np.empty(n + 1)
    x, i_v, c, d, y = initial.x, initial.i, initial.c, initial.d, initial.y
    e_indep = initial.e
    j = initial.i
    gen = (stream or RngStream(0)).generator() if stochastic else None
    sqdt = math.sqrt(dt)
    worst = 0.0

    for k in range(n + 1):
        tk = t[k]
        e_identity = x + i_v + c - d - y
        out["x"][k], out["i"][k], out["c"][k] = x, i_v, c
        out["d"][k], out["y"][k], out["e"][k] = d, y, e_identity
        out["j"][k] = j
        dpath[k] = delta(tk)
        worst = max(worst, abs(e_indep - e_identity))
        if k == n:
            break

        cap_phi = lagged_loan_inflow(phi, tk, params)
        cap_psi = lagged_borrow_inflow(psi, tk, params)
        om, pv, dv = omega(tk), pi(tk), delta(tk)
        di_noise = params.sigma * i_v * sqdt * gen.standard_normal() if stochastic else 0.0

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
        e_indep += de
        j += dj

    return Trajectory(t=t, x=out["x"], i=out["i"], c=out["c"], d=out["d"],
                      y=out["y"], e=out["e"], j=out["j"], delta_path=dpath,
                      max_consistency_residual=worst, params=params)


def cashflow_objective(traj: Trajectory, params: FlowParams | None = None) -> float:
    """Discounted shareholder cash flow CF(T): trapezoidal quadrature of
    e^{-RT} (nu X + r J - beta D - xi Y + (e^{-R(t-T)} - 1) delta)."""
    p = params or traj.params
    t = traj.t
    horizon = t[-1]
    integrand = (p.nu * traj.x + p.r * traj.j - p.beta * traj.d
                 - p.xi * traj.y
                 + (np.exp(-p.discount * (t - horizon)) - 1.0) * traj.delta_path)
    return float(math.exp(-p.discount * horizon) * np.trapezoid(integrand, t))


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
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError("kappa must lie in [0, 1)")
        for name in ("rwa", "rsf_x", "rsf_i", "asf_d", "asf_y",
                     "co_d", "co_y", "ci_x", "ci_i"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class ConstraintReport:
    funding_slack: float      # ASF - RSF
    liquidity_slack: float    # CI - CO
    capital_slack: float      # E - K
    required_capital: float

    @property
    def all_pass(self) -> bool:
        return (self.funding_slack > 0 and self.liquidity_slack > 0
                and self.capital_slack > 0)

    @property
    def min_slack(self) -> float:
        return min(self.funding_slack, self.liquidity_slack, self.capital_slack)


def constraints_report(state: FlowState, weights: RegWeights) -> ConstraintReport:
    """Stable-funding, 30-day liquidity, and capital checks with slacks."""
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
    min_slack: float


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
    constraint_stride: int = 1,
) -> SearchResult:
    """Exhaustive grid over constant controls, maximizing deterministic
    CF(T) subject to the regulatory constraints holding at every sampled
    step.  An empty feasible set is reported, not raised."""
    names = ("phi", "psi", "omega", "pi", "delta")
    axes = [np.atleast_1d(np.asarray(grid.get(n, [0.0]), dtype=float)) for n in names]
    table: list[SearchRecord] = []
    best: SearchRecord | None = None
    for values in itertools.product(*axes):
        ctrl = dict(zip(names, (float(v) for v in values)))
        traj = evolve(initial, params,
                      Controls(phi=ctrl["phi"], psi=ctrl["psi"],
                               omega=ctrl["omega"], pi=ctrl["pi"],
                               delta=ctrl["delta"]),
                      horizon, dt)
        min_slack = math.inf
        feasible = True
        for k in range(0, len(traj.t), constraint_stride):
            rep = constraints_report(traj.state_at(k), weights)
            min_slack = min(min_slack, rep.min_slack)
            if not rep.all_pass:
                feasible = False
                break
        cf = cashflow_objective(traj, params)
        rec = SearchRecord(controls=ctrl, cashflow=cf, feasible=feasible,
                           min_slack=min_slack)
        table.append(rec)
        if feasible and (best is None or cf > best.cashflow):
            best = rec
    return SearchResult(best=best, table=table)
