"""Optimal dividend policy for bank equity under two downward jump sources.

Equity follows an arithmetic Brownian motion hit by solvency and liquidity
jumps with exponential sizes.  Paying dividends is a singular control: the
value function solves the variational inequality max{L(V), 1 - V_E} = 0
with V(tau=0, E) = E and V(tau, 0) = 0.

Two solution routes are provided and cross-validated:
  * the stationary (infinite-horizon) solution: below the barrier the value
    is a multiple of the scale function W(E) = sum_k e^{r_k E} / psi'(r_k)
    over the four real roots r_k of the operator symbol psi, and the
    barrier E* is the zero of W'' (Avram, Palmowski & Pistorius 2007, Ann.
    Appl. Probab.; Loeffen 2008, Ann. Appl. Probab.);
  * a Crank-Nicolson march of the time-dependent inequality with the jump
    integrals reduced to companion ODEs in E (exact per-cell exponential
    integration) and the obstacle enforced by projection on the monotone
    envelope.

Each march step makes two library calls: one BLAS `dtbsv` forward
substitution scans both jump sources (`_jump_scans`), and one LAPACK
`dgttrs` solve, through this module's `solve_banded`, reuses the
Crank-Nicolson matrix that `dgttrf` factored once per march.  The outputs
are byte for byte those of one scan per source and a fresh banded
elimination per step.

scipy loads on first use, not on import: `solve_variational` loads
scipy.linalg for the LAPACK and BLAS calls.  `stationary_barrier` needs
numpy only: it bisects the scanned bracket of E* to brentq's tolerance,
1e-14 + 8.9e-16 E*.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import require_count
from .sde import require_fields, step_count

__all__ = [
    "EquityParams", "SymbolCoefficients", "BarrierSolution", "EquityValueGrid",
    "symbol", "symbol_roots", "stationary_barrier", "solve_variational",
    "FIG13_PARAMS",
]


@dataclass(frozen=True)
class EquityParams:
    mu: float          # retained-earnings accumulation rate
    sigma: float       # earnings volatility
    discount: float    # shareholder discount rate R
    lambda1: float     # solvency jump intensity (rarer, larger)
    delta1: float      # solvency jump size decay
    lambda2: float     # liquidity jump intensity
    delta2: float      # liquidity jump size decay

    def __post_init__(self) -> None:
        require_fields(self, positive=("sigma", "discount", "delta1", "delta2"),
                       non_negative=("lambda1", "lambda2"))


# trial barriers E*: a geometric scan of BARRIER_BRACKET, searched for a sign
# change of the curvature residual (Fig 13's E* is about 0.31)
BARRIER_BRACKET = (1e-3, 50.0)
BARRIER_SCAN_POINTS = 220
# above this dtau/dE^2 the explicit jump terms of the march may lose accuracy
CFL_BOUND = 2000.0
# a slope within this of 1 counts as pinned by the obstacle V_E >= 1
FREE_BOUNDARY_TOL = 1e-10
# solve_variational records the slice every n_steps // RECORD_SLICES steps
# (every step when that is 0) and the last one
RECORD_SLICES = 8

FIG13_PARAMS = EquityParams(mu=0.05, sigma=0.25, discount=0.10,
                            lambda1=0.05, delta1=3.00,
                            lambda2=0.02, delta2=1.00)


@dataclass(frozen=True)
class SymbolCoefficients:
    a2: float
    a1: float
    a0: float

    @classmethod
    def from_params(cls, p: EquityParams) -> "SymbolCoefficients":
        return cls(a2=0.5 * p.sigma ** 2, a1=p.mu,
                   a0=-(p.discount + p.lambda1 + p.lambda2))


def symbol(xi, params: EquityParams):
    """Symbol of the equity operator: a2 xi^2 + a1 xi + a0
    + lambda1 delta1/(xi+delta1) + lambda2 delta2/(xi+delta2).

    Inactive jump sources (lambda = 0) contribute nothing and carry no pole."""
    c = SymbolCoefficients.from_params(params)
    xi_arr = np.asarray(xi, dtype=float)
    out = c.a2 * xi_arr ** 2 + c.a1 * xi_arr + c.a0
    for lam, delta in _jump_sources(params):
        if np.any(np.isclose(xi_arr, -delta, rtol=0.0, atol=1e-12)):
            raise ZeroDivisionError(f"symbol evaluated at its pole xi = {-delta}")
        out = out + lam * delta / (xi_arr + delta)
    return float(out) if np.isscalar(xi) else out


def _jump_sources(params: EquityParams) -> list[tuple[float, float]]:
    """(lambda, delta) of the active jump sources, those with lambda > 0."""
    return [(lam, delta) for lam, delta in ((params.lambda1, params.delta1),
                                            (params.lambda2, params.delta2))
            if lam > 0.0]


def _symbol_derivative(xi, params: EquityParams):
    """psi'(xi), elementwise on an array."""
    c = SymbolCoefficients.from_params(params)
    out = 2.0 * c.a2 * xi + c.a1
    for lam, delta in _jump_sources(params):
        out -= lam * delta / (xi + delta) ** 2
    return out


def symbol_roots(params: EquityParams) -> np.ndarray:
    """All roots of the symbol: four with both jump sources active, fewer as
    intensities vanish.  Companion-matrix roots of the cleared-denominator
    polynomial, Newton-polished on the symbol itself."""
    c = SymbolCoefficients.from_params(params)
    poles = _jump_sources(params)
    # the quadratic times each pole factor in turn, plus lam*delta times the
    # product of the OTHER pole factors, skipped by position: equal sources
    # still have two factors
    poly = functools.reduce(np.polymul, ([1.0, delta] for _, delta in poles),
                            [c.a2, c.a1, c.a0])
    for k, (lam, delta) in enumerate(poles):
        poly = np.polyadd(poly, lam * delta * np.poly([-d for _, d in poles[:k] + poles[k + 1:]]))
    raw = np.roots(poly)
    imag_scale = np.max(np.abs(raw))
    complex_mask = np.abs(raw.imag) > 1e-9 * imag_scale
    if np.any(complex_mask):
        raise ValueError(f"symbol has complex roots {raw[complex_mask]}; outside the "
                         "all-real regime")
    roots = np.sort(raw.real)
    for _, delta in poles:
        if np.any(np.isclose(roots, -delta, rtol=0.0, atol=1e-9)):
            raise ValueError(f"root collides with the symbol pole at {-delta}")
    for _ in range(3):
        roots = roots - symbol(roots, params) / _symbol_derivative(roots, params)
    return roots


@dataclass(eq=False)
class BarrierSolution:
    roots: np.ndarray
    coeffs: np.ndarray
    e_star: float
    params: EquityParams

    def value(self, e):
        """Stationary value: exponential combination below the barrier,
        linear payout beyond it.

        A scalar ``e`` (Python or numpy) gives a Python float; an array gives
        an array of the same shape, 0-d included."""
        e_arr = np.asarray(e, dtype=float)
        out = np.where(e_arr <= self.e_star, self.derivative(np.clip(e_arr, 0.0, self.e_star), 0),
                       e_arr + self.derivative(self.e_star, 0) - self.e_star)
        return float(out) if np.isscalar(e) else out

    def derivative(self, e, order: int = 1):
        """``order``-th derivative d^order V / dE^order of the exponential
        combination, so order 0 is V, order 1 is V_E and order 2 is V_EE.

        The closed form holds only at or below the barrier (0 <= e <= E*);
        any point above E* raises ValueError.  Shapes follow ``value``: a
        scalar gives a Python float, an array an array of its shape."""
        e_arr = np.asarray(e, dtype=float)
        if np.any(e_arr > self.e_star):
            raise ValueError("closed-form derivatives apply below the barrier")
        # np.outer flattens its first argument; restore the input's shape
        out = (np.exp(np.outer(e_arr, self.roots))
               @ (self.coeffs * self.roots ** order)).reshape(e_arr.shape)
        return float(out) if np.isscalar(e) else out


def _curvature(roots: np.ndarray, weights: np.ndarray, e):
    """W''(E) e^{-r_max E} = sum_k w_k r_k^2 e^{(r_k - r_max) E} at the trial
    barriers ``e``: the sign of the scale function's curvature, scaled so
    that no exponent is positive and nothing can overflow."""
    return np.exp(np.multiply.outer(e, roots - roots.max())) @ (weights * roots ** 2)


def stationary_barrier(params: EquityParams) -> BarrierSolution:
    """Stationary value function and optimal barrier E*.

    Below the barrier V = c W, with W(E) = sum_k w_k e^{r_k E} the scale
    function and w_k = 1/psi'(r_k) the residues of 1/psi at its simple
    poles r_k (a repeated root has no finite weight and is refused).  1/psi
    is O(xi^-2) at infinity, so sum_k w_k = 0 and V(0) = 0; it vanishes at
    each jump pole -delta, so sum_k w_k / (r_k + delta) = 0, both jump
    rows.  E* is the zero of W'': it is bracketed by the first sign change
    of `_curvature` on a geometric scan of BARRIER_BRACKET (an exact zero at
    a scan point is the root) and bisected until the bracket is at most
    1e-14 + 8.9e-16 E* wide, brentq's tolerance.  c = 1/W'(E*) sets V_E(E*)
    = 1."""
    roots = symbol_roots(params)
    if len(roots) != 4:
        raise ValueError("the stationary construction needs both jump sources active "
                         f"(four symbol roots); got {len(roots)}")
    slopes = _symbol_derivative(roots, params)
    if not np.all(np.isfinite(slopes) & (slopes != 0.0)):
        raise RuntimeError(f"psi' = {slopes} at the symbol roots {roots}: a repeated "
                           "root has no finite scale-function weight")
    weights = 1.0 / slopes
    scan = np.geomspace(*BARRIER_BRACKET, BARRIER_SCAN_POINTS)
    vals = _curvature(roots, weights, scan)
    sign_flip = np.flatnonzero(np.diff(np.sign(vals)))
    if len(sign_flip) == 0:
        raise RuntimeError(
            "no sign change of the curvature W'' on the scan grid; "
            f"W''(E) e^(-r_max E) ranges over [{vals.min():.3e}, {vals.max():.3e}] "
            f"on barriers [{BARRIER_BRACKET[0]}, {BARRIER_BRACKET[1]}]")
    k = sign_flip[0]
    lo, hi = scan[k], scan[k + 1]
    # an exact zero at a scan point is the root
    if vals[k] == 0.0:
        hi = lo
    elif vals[k + 1] == 0.0:
        lo = hi
    while hi - lo > 1e-14 + 8.9e-16 * hi:
        mid = 0.5 * (lo + hi)
        if (_curvature(roots, weights, mid) > 0.0) == (vals[k] > 0.0):
            lo = mid
        else:
            hi = mid
    e_star = 0.5 * (lo + hi)
    coeffs = weights / (np.exp(roots * e_star) @ (weights * roots))
    return BarrierSolution(roots=roots, coeffs=coeffs, e_star=float(e_star),
                           params=params)


def _cell_weights(delta: float, h: float) -> tuple[float, float, float]:
    """Exact one-cell update of I' = delta (V - I) for linear V: the decay
    of I, the weight of the left value and the weight of the slope."""
    decay = math.exp(-delta * h)
    w0 = 1.0 - decay
    return decay, w0, h - w0 / delta


@dataclass(eq=False)
class EquityValueGrid:
    grid: np.ndarray
    tau: np.ndarray
    values: np.ndarray            # (len(tau), len(grid))
    free_boundary: np.ndarray     # per recorded slice
    params: EquityParams

    def final(self) -> np.ndarray:
        return self.values[-1]


def solve_variational(
    params: EquityParams,
    horizon: float,
    e_max: float,
    n_grid: int = 2000,
    dtau: float = 1e-3,
) -> EquityValueGrid:
    """Crank-Nicolson march of the dividend variational inequality.

    Drift/diffusion/discount are half-implicit; the jump integrals are
    rebuilt from the current slice by exact exponential integration and
    treated explicitly; the obstacle V_E >= 1 is enforced by projecting on
    the monotone envelope V_k >= V_{k-1} + h after each step.  Boundary
    rows: V = 0 at E = 0 and V_E = 1 at the truncated top (deep in the
    payout region)."""
    n_steps = step_count(horizon, dtau, "dtau")
    if not (math.isfinite(e_max) and e_max > 0):
        raise ValueError(f"e_max must be finite and positive, got {e_max}")
    require_count("n_grid", n_grid, 3)
    c = SymbolCoefficients.from_params(params)
    grid = np.linspace(0.0, e_max, n_grid)
    h = grid[1] - grid[0]
    if dtau / h**2 > CFL_BOUND:
        warnings.warn(
            f"dtau/dE^2 = {dtau / h**2:.1f} exceeds {CFL_BOUND}; accuracy of "
            "the explicit jump terms may degrade", stacklevel=2)
    v = grid.copy()                       # tau = 0 payoff

    a_lo = c.a2 / h**2 - c.a1 / (2.0 * h)
    a_mid = -2.0 * c.a2 / h**2 + c.a0
    a_hi = c.a2 / h**2 + c.a1 / (2.0 * h)
    half = 0.5 * dtau
    factored = _factor(_implicit_band(a_lo, a_mid, a_hi, half, n_grid))

    scan = _jump_scans((params.delta1, params.delta2), h, n_grid)
    lam = np.array([[params.lambda1], [params.lambda2]])
    ramp = h * np.arange(n_grid)
    work = np.empty(n_grid - 2)
    # dgttrs writes each step's solution over its right-hand side, so the
    # right-hand side alternates between two buffers while v holds the other
    buffers = (np.empty(n_grid), np.empty(n_grid))

    rec_every = max(n_steps // RECORD_SLICES, 1)
    taus = [0.0]
    slices = [v.copy()]
    fbs = [float(grid[_free_boundary_index(v, h)])]

    for step in range(1, n_steps + 1):
        # rhs = v + half (a_lo v_- + a_mid v + a_hi v_+) + dtau (i1 + i2) on
        # the interior, built in place in that order
        i12 = scan(v)
        i12 *= lam
        jumps = i12[0, :-1]
        jumps += i12[1, :-1]
        jumps *= dtau
        rhs = buffers[step & 1]
        mid = rhs[1:-1]
        np.multiply(v[:-2], a_lo, out=mid)
        mid += np.multiply(v[1:-1], a_mid, out=work)
        mid += np.multiply(v[2:], a_hi, out=work)
        mid *= half
        mid += v[1:-1]
        mid += jumps
        rhs[0] = 0.0
        rhs[-1] = h
        v = solve_banded(factored, rhs)
        # the monotone envelope V_k >= V_{k-1} + h, in place
        v -= ramp
        np.maximum.accumulate(v, out=v)
        v += ramp
        if step % rec_every == 0 or step == n_steps:
            taus.append(step * dtau)
            slices.append(v.copy())
            fbs.append(float(grid[_free_boundary_index(v, h)]))

    return EquityValueGrid(grid=grid, tau=np.array(taus),
                           values=np.array(slices),
                           free_boundary=np.array(fbs), params=params)


def _implicit_band(a_lo: float, a_mid: float, a_hi: float, half: float,
                   n_grid: int) -> np.ndarray:
    """The implicit Crank-Nicolson matrix M in the (1, 1) banded layout
    banded[1 + i - j, j] = M[i, j].  Interior rows are 1 - half times the
    stencil (a_lo, a_mid, a_hi); the boundary rows are Dirichlet (bottom) and
    V_E = 1 (top)."""
    banded = np.zeros((3, n_grid))
    banded[0, 2:] = -half * a_hi    # row 0 couples to nothing
    banded[1, 1:-1] = 1.0 - half * a_mid
    banded[1, [0, -1]] = 1.0
    banded[2, :-2] = -half * a_lo
    banded[2, -2] = -1.0            # top row: V_{n-1} - V_{n-2} = h
    return banded


def _factor(banded: np.ndarray):
    """The tridiagonal matrix held in ``banded``'s (1, 1) layout, factored by
    LAPACK `dgttrf` (LU with partial pivoting), as `dgttrs` bound to its
    factors: the solver `solve_banded` takes."""
    from scipy.linalg.lapack import dgttrf, dgttrs
    *factors, info = dgttrf(banded[2, :-1], banded[1], banded[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular Crank-Nicolson matrix (dgttrf info = {info})")
    return functools.partial(dgttrs, *factors, overwrite_b=1)


def solve_banded(factored, b: np.ndarray) -> np.ndarray:
    """Solve the Crank-Nicolson system that `_factor` factored for the
    right-hand side ``b``, overwriting ``b``.  A non-finite ``b`` raises
    ValueError.  A name of this module, which the march calls once per step
    and the benchmark's tracer wraps to count the solves."""
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    x, _ = factored(b)
    return x


def _jump_scans(deltas: tuple[float, ...], h: float, n_grid: int):
    """The jump integral I(E) = delta int_0^E V(u) e^{-delta (E-u)} du of a
    piecewise-linear slice V, by the exact per-cell update of I' = delta
    (V - I) (`_cell_weights`), at nodes 1..n_grid-1, one row per decay in
    ``deltas``, as one BLAS call.

    The returned scan takes the slice v.  Each row's recurrence acc_k =
    decay acc_{k-1} + c_k, with c_k = v_k w0 + slope_k w1, is forward
    substitution on a unit lower-bidiagonal band with -decay below the
    diagonal.  The rows' bands are stacked into one, with 0 below the
    diagonal where one row ends and the next begins, so each row does the
    arithmetic of its own scan; the unit diagonal is never divided by.  The
    band is built once (no power of decay is formed, so long grids cannot
    underflow).  The rows are a buffer that the next call overwrites."""
    from scipy.linalg.blas import dtbsv
    # one (len(deltas), 1) column each, broadcast over a row's cells
    decay, w0, w1 = np.array([_cell_weights(d, h) for d in deltas]).T[:, :, None]
    cells = n_grid - 1
    sub = np.repeat(-decay, cells)
    sub[cells - 1::cells] = 0.0          # each row's end (the last is unread)
    band = np.asfortranarray([np.ones_like(sub), sub])
    slope = np.empty(cells)
    rows = np.empty((len(deltas), cells))
    work = np.empty_like(rows)
    flat = rows.reshape(-1)

    def scan(v: np.ndarray) -> np.ndarray:
        # the cell slopes np.diff(v) / h, in place
        np.subtract(v[1:], v[:-1], out=slope)
        np.divide(slope, h, out=slope)
        np.multiply(v[:-1], w0, out=rows)
        np.add(rows, np.multiply(slope, w1, out=work), out=rows)
        return dtbsv(1, band, flat, lower=1, diag=1, overwrite_x=1).reshape(rows.shape)

    return scan


def _free_boundary_index(v: np.ndarray, h: float) -> int:
    """First grid index where the payout region begins (V_E pinned at 1
    from there upward); the last index if the obstacle never binds."""
    slopes = np.diff(v) / h
    pinned = slopes <= 1.0 + FREE_BOUNDARY_TOL
    unpinned = np.flatnonzero(~pinned)
    # the trailing pinned run starts after the last unpinned slope
    return int(unpinned[-1]) + 1 if unpinned.size else 0
