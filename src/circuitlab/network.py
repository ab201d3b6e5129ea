"""Interconnected banking network with structural defaults.

N banks hold external assets A_i and owe external liabilities L_i plus a
mutual-liability matrix L_ij (what i owes j).  Assets follow correlated
lognormal or common-shock jump-diffusion dynamics while all liabilities
grow deterministically at the common rate mu, so default boundaries scale
with e^{mu t} and boundary ratios are time-invariant.

A bank defaults during the horizon when its assets touch the interior
(recovery-discounted) boundary; it is then removed, survivors' external
liabilities absorb the net estate settlement L_i + L_ik - R_k L_ki, and
every surviving boundary moves outward by (1 - R_i R_k) L_ki, which is
asserted.  At the horizon the survivors settle at the Eisenberg-Noe
clearing vector, found exactly by fictitious default: at most N + 1 rounds
of one batched linear solve each, a bank counting as short only when it
pays below par by more than 1e-10 (`clearing_vector`).

`simulate_paths` holds a chunk's state bank-major, (N, paths), the layout
of the (dims, paths) noise rows `PathNoise.rows` yields, so a step reads
and writes contiguous rows with no transpose; only its records are
path-major.  PATH_CHUNK = 2,048 is the widest chunk whose two-bank noise
draws reach `rng.THREAD_VALUES` values per path, the size from which
`PathNoise` shares a draw with its worker thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import CorrelationMatrix, JumpSpec, PathNoise, RngStream, require_count
from .sde import step_count

__all__ = [
    "BankNetwork", "DefaultBoundarySet", "ClearingVector", "NondimContext",
    "boundaries", "remove_bank", "clearing_vector", "kappa_coeffs",
    "simulate_paths", "survival_probabilities", "instrument_payoffs",
    "two_bank_survival_grid", "PathRecords", "fig15_network",
    "TwoBankDomains", "two_bank_domains",
]


@dataclass(eq=False)
class BankNetwork:
    external_assets: np.ndarray
    external_liabilities: np.ndarray
    mutual: np.ndarray                    # mutual[i, j] = liability of i to j
    recoveries: np.ndarray
    sigma: np.ndarray
    mu: float = 0.0
    corr: CorrelationMatrix | None = None
    jumps: JumpSpec | None = None
    # set once __post_init__ has passed; from then on every field assignment
    # re-runs the checks
    _checked = False

    def __setattr__(self, name: str, value) -> None:
        if not self._checked:
            object.__setattr__(self, name, value)
            return
        old = getattr(self, name)
        object.__setattr__(self, name, value)
        try:
            self.__post_init__()
        except ValueError:
            # an assignment that fails the checks leaves the network as it was
            object.__setattr__(self, name, old)
            raise

    def __post_init__(self) -> None:
        # external liabilities take either sign: remove_bank nets recovered claims
        n = np.size(self.external_assets)
        for name, shape in (("external_assets", (n,)), ("external_liabilities", (n,)),
                            ("mutual", (n, n)), ("recoveries", (n,)), ("sigma", (n,))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        off_range = (
            ("external_assets", "must be positive", self.external_assets <= 0),
            ("sigma", "must be positive", self.sigma <= 0),
            ("mutual", "must be non-negative with a zero diagonal",
             (self.mutual < 0) | (np.eye(n, dtype=bool) & (self.mutual != 0.0))),
            ("recoveries", "must lie in [0, 1]",
             (self.recoveries < 0) | (self.recoveries > 1)),
        )
        for name, rule, bad in off_range:
            if bad.any():
                at = tuple(int(i) for i in np.argwhere(bad)[0])
                where = f"bank {at[0]}" if len(at) == 1 else f"entry {at}"
                raise ValueError(f"{name} {rule}, got {getattr(self, name)[at]} at {where}")
        if self.corr is None:
            object.__setattr__(self, "corr", CorrelationMatrix(np.eye(n)))
        if self.corr.n != n:
            raise ValueError(f"corr must be {n}x{n}, got {self.corr.n}x{self.corr.n}")
        if self.jumps is not None and self.jumps.n_banks != n:
            raise ValueError(f"jumps must cover {n} banks, got {self.jumps.n_banks}")
        object.__setattr__(self, "_checked", True)

    @property
    def n(self) -> int:
        return self.external_assets.shape[0]

    @property
    def interbank_assets(self) -> np.ndarray:
        """A_hat_i = sum_j L_ji: claims of i on the others."""
        return self.mutual.sum(axis=0)

    @property
    def interbank_liabilities(self) -> np.ndarray:
        """L_hat_i = sum_j L_ij."""
        return self.mutual.sum(axis=1)

    @property
    def equity(self) -> np.ndarray:
        return (self.external_assets + self.interbank_assets
                - self.external_liabilities - self.interbank_liabilities)


def fig15_network(sigma=(0.4, 0.4), rho=0.0, mu=0.0,
                  external_assets=(60.0, 80.0)) -> BankNetwork:
    """Two-bank configuration with L1=50, L12=10, L2=60, L21=20, R=0.4."""
    return BankNetwork(
        external_assets=np.asarray(external_assets, dtype=float),
        external_liabilities=np.array([50.0, 60.0]),
        mutual=np.array([[0.0, 10.0], [20.0, 0.0]]),
        recoveries=np.array([0.4, 0.4]),
        sigma=np.asarray(sigma, dtype=float),
        mu=mu,
        corr=CorrelationMatrix.from_scalar(rho, 2),
    )


@dataclass(frozen=True, eq=False)
class DefaultBoundarySet:
    interior: np.ndarray   # Lambda^< = R (L + L_hat) - A_hat, monitored for t < T
    terminal: np.ndarray   # Lambda^= = L + L_hat - A_hat, settlement level at T


def boundaries(net: BankNetwork) -> DefaultBoundarySet:
    total_liab = net.external_liabilities + net.interbank_liabilities
    a_hat = net.interbank_assets
    return DefaultBoundarySet(
        interior=net.recoveries * total_liab - a_hat,
        terminal=total_liab - a_hat,
    )


def remove_bank(net: BankNetwork, k: int) -> BankNetwork:
    """Reduced network after bank k defaults.

    Survivors' debts to k fall to the estate and become external; claims on
    k pay out at recovery and offset external liabilities:
        L_i <- L_i + L_ik - R_k L_ki.
    The implied boundary shifts (1 - R_i R_k) L_ki (interior) and
    (1 - R_k) L_ki (terminal) are non-negative, which is asserted.
    """
    n = net.n
    if not 0 <= k < n:
        raise IndexError(f"bank index {k} out of range for {n} banks")
    keep = [i for i in range(n) if i != k]
    old = boundaries(net)
    new_ext_liab = (net.external_liabilities[keep]
                    + net.mutual[keep, k]
                    - net.recoveries[k] * net.mutual[k, keep])
    sub_corr = CorrelationMatrix(net.corr.rho[np.ix_(keep, keep)])
    reduced = BankNetwork(
        external_assets=net.external_assets[keep].copy(),
        external_liabilities=new_ext_liab,
        mutual=net.mutual[np.ix_(keep, keep)].copy(),
        recoveries=net.recoveries[keep].copy(),
        sigma=net.sigma[keep].copy(),
        mu=net.mu,
        corr=sub_corr,
        jumps=None if net.jumps is None else _reduce_jumps(net.jumps, k),
    )
    new = boundaries(reduced)
    shift_int = new.interior - old.interior[keep]
    shift_term = new.terminal - old.terminal[keep]
    if np.any(shift_int < -1e-9) or np.any(shift_term < -1e-9):
        raise AssertionError(
            "default boundaries must move outward on removal; got shifts "
            f"{shift_int} / {shift_term}"
        )
    return reduced


def _reduce_jumps(spec: JumpSpec, k: int) -> JumpSpec:
    keep = [i for i in range(spec.n_banks) if i != k]
    remap = {old: new for new, old in enumerate(keep)}
    subsets: dict[frozenset[int], float] = {}
    for subset, lam in spec.subset_intensities.items():
        reduced = frozenset(remap[i] for i in subset if i != k)
        if reduced:
            subsets[reduced] = subsets.get(reduced, 0.0) + lam
    return JumpSpec(spec.n_banks - 1, subsets, spec.theta[keep])


# a payout fraction this close to 1 is solvent: the bank pays in full
SOLVENT_OMEGA = 1.0 - 1e-9
# a bank falls short only when it pays below par by more than the clearing's
# fixed-point tolerance, so one paying par to within rounding stays solvent
SHORT_MARGIN = 1e-10
# paths run at once by simulate_paths and two_bank_survival_grid: a chunk
# bounds memory, and each path draws its own noise, so no result depends on
# it.  A simulate_paths chunk draws rng.NOISE_VALUES // (N * PATH_CHUNK)
# steps at a time: 256 for two banks, 512 values per path, which reaches
# rng.THREAD_VALUES, so the fill runs on two threads.  A wider chunk draws
# fewer values per path, on one thread
PATH_CHUNK = 2048
GRID_CHUNK = 256


@dataclass(eq=False)
class ClearingVector:
    omega: np.ndarray
    solvent: np.ndarray      # omega_i == 1 within tolerance
    iterations: int          # fictitious-default rounds of the slowest path


def clearing_vector(net: BankNetwork, terminal_assets: np.ndarray) -> ClearingVector:
    """Eisenberg-Noe terminal payout fractions by fictitious default
    (Eisenberg & Noe 2001, Management Science 47(2)).

    Each round pays every bank outside the default set in full, solves the
    set's linear system omega_i due_i = A_i + sum_j omega_j L_ji exactly, and
    takes as the next set the banks paying below par by more than
    SHORT_MARGIN = 1e-10.  The set only grows (asserted) and the rounds stop
    once it holds, after at most N + 1 of them, at the greatest clearing
    vector: a fixed point of omega <- min((A_T + claims received) / total
    liabilities, 1), checked to 1e-10.  Banks with no liabilities pay
    omega = 1.  `terminal_assets` (finite, non-negative) may carry leading
    path axes (..., N); a path's payouts do not depend on its batch, and
    `iterations` counts the rounds of the slowest path.
    """
    n = net.n
    a_t = np.asarray(terminal_assets, dtype=float)
    if a_t.ndim == 0 or a_t.shape[-1] != n:
        raise ValueError(f"terminal_assets must have shape (..., {n}), got {a_t.shape}")
    if not np.all(np.isfinite(a_t)) or np.any(a_t < 0):
        raise ValueError("terminal_assets must be finite and non-negative")
    a = a_t.reshape(-1, n)
    total = net.external_liabilities + net.interbank_liabilities
    owes = total > 0.0
    due = np.where(owes, total, 1.0)
    claims = net.mutual  # claims[j, i] = L_ji owed to i

    def inflow(omega):
        # summed bank by bank: a path's result does not depend on its batch
        return sum(omega[:, j, None] * claims[j] for j in range(n))

    def sweep(omega):
        # divides only where a bank owes more than it holds: a tiny total
        # liability would overflow the quotient that the cap discards
        cash = a + inflow(omega)
        return np.divide(cash, due, out=np.ones_like(cash), where=owes & (cash < due))

    # row i of a defaulted bank: due_i omega_i - sum_{j defaulted} L_ji omega_j
    system = np.diag(due) - claims.T
    default = np.zeros(a.shape, dtype=bool)
    for rounds in range(1, n + 2):
        matrix = np.where(default[:, :, None], system * default[:, None, :], np.eye(n))
        rhs = np.where(default, a + inflow(~default), 1.0)
        omega = np.linalg.solve(matrix, rhs[..., None])[..., 0]
        short = sweep(omega) < 1.0 - SHORT_MARGIN
        if np.any(default & ~short):
            raise AssertionError(
                "fictitious default: the default set must only grow; "
                f"round {rounds} cleared a defaulted bank")
        if np.array_equal(short, default):
            break
        default = short
    residual = np.max(np.abs(sweep(omega) - omega), initial=0.0)
    if not residual <= SHORT_MARGIN:
        raise RuntimeError(f"clearing output is not a fixed point: residual {residual:.3e}")
    omega = omega.reshape(a_t.shape)
    return ClearingVector(omega=omega, solvent=omega >= SOLVENT_OMEGA, iterations=rounds)


def kappa_coeffs(a1: float, a2: float, net: BankNetwork) -> np.ndarray:
    """Two-bank both-default payout fractions from the detailed-balance
    linear system; equals the clearing vector on the both-default domain."""
    if net.n != 2:
        raise ValueError("kappa coefficients are defined for two banks")
    l1, l2 = net.external_liabilities
    l12 = net.mutual[0, 1]
    l21 = net.mutual[1, 0]
    delta = _delta(net)
    k1 = (l2 * a1 + l21 * (a1 + a2)) / delta
    k2 = (l1 * a2 + l12 * (a1 + a2)) / delta
    return np.array([k1, k2])


def _delta(net: BankNetwork) -> float:
    """Delta = L1 L2 + L1 L21 + L2 L12 of the two-bank detailed balance."""
    l1, l2 = net.external_liabilities
    return l1 * l2 + l1 * net.mutual[1, 0] + l2 * net.mutual[0, 1]


@dataclass(eq=False)
class NondimContext:
    """Scaled coordinates X_i = (Sigma/sigma_i) ln(A_i / Lambda_i^<) in which
    assets are unit-variance Brownian motions and the interior boundary sits
    at zero."""

    sigma_bar: float
    zeta: np.ndarray          # Sigma / sigma_i
    xi: np.ndarray            # scaled drifts
    m_terminal: np.ndarray    # terminal boundary levels in X units
    interior_levels: np.ndarray   # Lambda^< in money units (initial scale)

    def scaled_time(self, t: float) -> float:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"horizon must be finite and positive, got {t}")
        return self.sigma_bar ** 2 * t


def nondim_context(net: BankNetwork) -> NondimContext:
    """Scaled coordinates of a diffusion network.  The semi-analytics' one
    diffusion-only check lives here, their one two-bank check in
    `two_bank_domains`, which builds on this; jumps take the Monte Carlo."""
    if net.jumps is not None:
        raise ValueError("the scaled coordinates are diffusion-only; "
                         "use Monte Carlo for jump networks")
    b = boundaries(net)
    if np.any(b.interior <= 0):
        raise ValueError(
            "non-dimensionalization requires positive interior boundaries; "
            f"got {b.interior}"
        )
    sigma_bar = float(np.exp(np.mean(np.log(net.sigma))))
    zeta = sigma_bar / net.sigma
    xi = -net.sigma / (2.0 * sigma_bar)
    m_term = zeta * np.log(b.terminal / b.interior)
    return NondimContext(sigma_bar=sigma_bar, zeta=zeta, xi=xi,
                         m_terminal=m_term, interior_levels=b.interior)


def shifted_levels(net: BankNetwork, ctx: NondimContext,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Post-default boundaries of the survivors in the ORIGINAL X coordinates,
    ctx = nondim_context(net) (per surviving bank, in original indexing)."""
    reduced = remove_bank(net, k)
    b_new = boundaries(reduced)
    keep = [i for i in range(net.n) if i != k]
    m_lt = ctx.zeta[keep] * np.log(b_new.interior / ctx.interior_levels[keep])
    m_eq = ctx.zeta[keep] * np.log(b_new.terminal / ctx.interior_levels[keep])
    return m_lt, m_eq


@dataclass(eq=False)
class TwoBankDomains:
    """Terminal settlement geometry of the two-bank quadrant, in the scaled
    coordinates of `ctx`."""

    ctx: NondimContext
    delta: float               # L1 L2 + L1 L21 + L2 L12
    m_tilde_eq: np.ndarray     # post-removal terminal levels, scaled
    m1_shift_lt: float         # bank 1's interior and terminal levels once
    m1_shift_eq: float         # bank 2 has defaulted (shifted_levels), scaled
    _net: BankNetwork

    def theta_curve(self, i: int, x_other) -> np.ndarray:
        """Scaled curvilinear boundary Theta_i(X_other) separating
        'bank i survives' from 'bank i defaults' while the other bank
        settles below par."""
        net = self._net
        lambda_lt, zeta = self.ctx.interior_levels, self.ctx.zeta
        j = 1 - i
        l_j = net.external_liabilities[j]
        l_ji = net.mutual[j, i]
        a_other = lambda_lt[j] * np.exp(np.asarray(x_other, float) / zeta[j])
        arg = (self.delta - l_ji * a_other) / (lambda_lt[i] * (l_j + l_ji))
        return zeta[i] * np.log(np.maximum(arg, 1e-300))


def two_bank_domains(net: BankNetwork) -> TwoBankDomains:
    """The two-bank frame, and the one check that a network has two banks:
    the wedge semi-analytics and the survival grid build through it."""
    if net.n != 2:
        raise ValueError(f"the two-bank semi-analytics need two banks, got {net.n}")
    l = net.external_liabilities
    m = net.mutual
    r = net.recoveries
    tilde_eq = np.array([
        l[0] + m[0, 1] - r[1] * m[1, 0],
        l[1] + m[1, 0] - r[0] * m[0, 1],
    ])
    ctx = nondim_context(net)
    (m1_shift_lt,), (m1_shift_eq,) = shifted_levels(net, ctx, 1)
    return TwoBankDomains(
        ctx=ctx, delta=float(_delta(net)),
        m_tilde_eq=ctx.zeta * np.log(tilde_eq / ctx.interior_levels),
        m1_shift_lt=m1_shift_lt, m1_shift_eq=m1_shift_eq, _net=net,
    )


@dataclass(eq=False)
class PathRecords:
    """Per-path outcome log of a network simulation."""

    n_banks: int
    horizon: float
    default_time: np.ndarray        # (paths, N), nan if never defaulted
    interior_default: np.ndarray    # (paths, N) bool
    omega: np.ndarray               # (paths, N) payout fraction, 1 if solvent
    terminal_assets: np.ndarray     # (paths, N) deflated by e^{mu T}; nan after interior default

    @property
    def n_paths(self) -> int:
        return self.default_time.shape[0]

    @property
    def survived(self) -> np.ndarray:
        return ~self.interior_default & (self.omega >= SOLVENT_OMEGA)


def simulate_paths(
    net: BankNetwork,
    horizon: float,
    dt: float,
    paths: int,
    stream: RngStream | None = None,
    dynamics: str = "lognormal",
) -> PathRecords:
    """Monte Carlo paths of the interconnected system.

    Assets evolve in log space (exact for the lognormal dynamics); all
    liabilities grow at e^{mu t}, so monitoring happens against fixed
    initial-scale boundary levels with deflated assets.  First crossings
    remove the bank (deepest relative breach first when several cross in one
    step) and the survivors' boundaries are recomputed; the horizon ends
    with Eisenberg-Noe settlement of the remaining banks.

    Paths run PATH_CHUNK at a time.  Within a chunk the log assets, the
    alive flags and the log interior boundaries are bank-major, (N, width),
    like the noise rows, and drift and sigma are (N, 1) columns; crossings
    settle on one path's column.  The records are (paths, N).
    """
    if dynamics not in ("lognormal", "jump-diffusion"):
        raise ValueError(f"unknown dynamics {dynamics!r}")
    if dynamics == "jump-diffusion" and net.jumps is None:
        raise ValueError("jump-diffusion dynamics require a jump specification")
    n_steps = step_count(horizon, dt)
    require_count("paths", paths, 1)
    n = net.n
    stream = stream or RngStream(0)
    chol = net.corr.cholesky
    sqdt = math.sqrt(dt)
    use_jumps = dynamics == "jump-diffusion"
    kappa_lam = (net.jumps.compensators * net.jumps.bank_intensities()
                 if use_jumps else np.zeros(n))
    # deflated log-asset drift: growth mu cancels against liability growth
    drift = ((-0.5 * net.sigma ** 2 - kappa_lam) * dt)[:, None]
    sigma = net.sigma[:, None]

    default_time = np.full((paths, n), np.nan)
    interior_default = np.zeros((paths, n), dtype=bool)
    omega_out = np.ones((paths, n))
    terminal_assets = np.full((paths, n), np.nan)

    # a path's liabilities depend only on which banks it has lost
    sets: dict[bytes, _SurvivorSet] = {}
    everyone = _survivors(sets, net, np.ones(n, dtype=bool))

    for start in range(0, paths, PATH_CHUNK):
        width = min(PATH_CHUNK, paths - start)
        span = slice(start, start + width)
        noise = PathNoise(stream, width, first_path=start)
        jump_events = (_draw_jump_events(noise, net.jumps, horizon, dt, width)
                       if use_jumps else {})
        log_a = np.repeat(np.log(net.external_assets)[:, None], width, axis=1)
        alive = np.ones((n, width), dtype=bool)
        log_interior = np.repeat(everyone.log_interior[:, None], width, axis=1)

        for k_step, z in enumerate(noise.rows(n_steps, n)):
            # log_a + drift + sigma * dw, summed in that order
            dw = _correlate(chol, z)
            dw *= sqdt
            dw *= sigma
            log_a += drift
            log_a += dw
            if k_step in jump_events:
                rows, banks, amps = jump_events[k_step]
                np.add.at(log_a, (banks, rows), amps)
            breach = alive & (log_a <= log_interior)
            if np.any(breach):
                for row in np.flatnonzero(breach.any(axis=0)):
                    _settle_interior(
                        sets, net, (k_step + 1) * dt, log_a[:, row], alive[:, row],
                        log_interior[:, row], default_time[start + row],
                        interior_default[start + row], omega_out[start + row],
                    )

        _settle_terminal(sets, net, log_a.T, alive.T, omega_out[span],
                         terminal_assets[span], default_time[span], horizon)

    return PathRecords(
        n_banks=n, horizon=horizon, default_time=default_time,
        interior_default=interior_default, omega=omega_out,
        terminal_assets=terminal_assets,
    )


def _correlate(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """chol @ z over z's bank axis, z of shape (..., N, paths), applied
    column by column: a BLAS product's rounding depends on the width."""
    return sum(chol[:, c, None] * z[..., c, None, :] for c in range(len(chol)))


@dataclass(frozen=True, eq=False)
class _SurvivorSet:
    net: BankNetwork             # the network reduced to the surviving banks
    idx: np.ndarray              # their indices in the full network
    log_interior: np.ndarray     # (N,) log interior boundaries; -inf where dead or <= 0
    # per bank of the full network, nan where dead: what it owes in all, and
    # its face-value claims on the other survivors
    due: list[float]
    claims: list[float]


def _survivors(sets: dict, net: BankNetwork, alive: np.ndarray) -> _SurvivorSet:
    """The survivor set `alive` of `net`, built once per run by removing the
    defaulted banks highest index first and cached in `sets`."""
    key = alive.tobytes()
    if key not in sets:
        dead = np.flatnonzero(~alive)
        reduced = net
        if dead.size:
            parent = _survivors(sets, net, alive | (np.arange(net.n) == dead[0]))
            reduced = remove_bank(parent.net, int(np.searchsorted(parent.idx, dead[0])))
        idx = np.flatnonzero(alive)
        interior = boundaries(reduced).interior
        log_interior = np.full(net.n, -np.inf)
        log_interior[idx[interior > 0]] = np.log(interior[interior > 0])
        due, claims = np.full((2, net.n), np.nan)
        due[idx] = reduced.external_liabilities + reduced.interbank_liabilities
        claims[idx] = reduced.interbank_assets
        sets[key] = _SurvivorSet(reduced, idx, log_interior, due.tolist(), claims.tolist())
    return sets[key]


def _draw_jump_events(noise: PathNoise, spec: JumpSpec, horizon: float,
                      dt: float, width: int) -> dict:
    """Arrival steps, banks, and log amplitudes per path, drawn path-first so
    results are independent of chunking.  Returns {step: (rows, banks, amps)}."""
    last_step = step_count(horizon, dt) - 1
    per_step: dict[int, list[tuple[int, int, float]]] = {}
    subsets = sorted(spec.subset_intensities.items(), key=lambda kv: sorted(kv[0]))
    for j in range(width):
        gen = noise.generator(j)
        for subset, lam in subsets:
            t = 0.0
            while True:
                t += gen.exponential(1.0 / lam)
                if t >= horizon:
                    break
                step = min(int(t / dt), last_step)
                for bank in sorted(subset):
                    amp = -gen.exponential(1.0 / spec.theta[bank])
                    per_step.setdefault(step, []).append((j, bank, amp))
    out = {}
    for step, items in per_step.items():
        rows = np.array([it[0] for it in items], dtype=np.intp)
        banks = np.array([it[1] for it in items], dtype=np.intp)
        amps = np.array([it[2] for it in items])
        out[step] = (rows, banks, amps)
    return out


def _settle_interior(sets, net, t, log_a, alive, log_interior, default_time,
                     interior_default, omega):
    """Process all breaches on one path at one step, deepest first, the
    lowest index on a tie.  `log_a`, `alive` and `log_interior` are the
    path's column of the chunk state, the rest its row of the records;
    `alive`, `log_interior` and the records are updated in place."""
    x = log_a.tolist()
    s = _survivors(sets, net, alive)
    while True:
        bounds = s.log_interior.tolist()
        k, deepest = -1, 0.0
        for i in s.idx.tolist():
            depth = bounds[i] - x[i]
            if depth >= deepest and (k < 0 or depth > deepest):
                k, deepest = i, depth
        if k < 0:
            break
        # payout fraction at crossing: assets plus face-value claims on the
        # still-alive banks over total due
        due = s.due[k]
        omega[k] = min((math.exp(x[k]) + s.claims[k]) / due, 1.0) if due > 0 else 1.0
        default_time[k] = t
        interior_default[k] = True
        alive[k] = False
        s = _survivors(sets, net, alive)
    log_interior[:] = s.log_interior


def _settle_terminal(sets, net, log_a, alive, omega, terminal_assets,
                     default_time, horizon):
    """Settle one chunk's paths (the output arrays are its rows): one batched
    clearing per survivor set, of all its paths."""
    a_t = np.exp(log_a)
    terminal_assets[alive] = a_t[alive]
    for mask in np.unique(alive, axis=0):
        if not mask.any():
            continue
        s = _survivors(sets, net, mask)
        rows = np.flatnonzero((alive == mask).all(axis=1))
        cv = clearing_vector(s.net, a_t[np.ix_(rows, s.idx)])
        omega[np.ix_(rows, s.idx)] = cv.omega
        default_time[np.ix_(rows, s.idx)] = np.where(cv.solvent, np.nan, horizon)


@dataclass(eq=False)
class SurvivalEstimate:
    joint: float
    joint_stderr: float
    marginal: np.ndarray
    marginal_stderr: np.ndarray
    n_paths: int


def survival_probabilities(records: PathRecords) -> SurvivalEstimate:
    """Joint and marginal survival frequencies with binomial standard errors."""
    n = records.n_paths
    if n < 1:
        raise ValueError("at least one path is required")
    surv = records.survived
    joint = surv.all(axis=1).mean()
    marg = surv.mean(axis=0)
    return SurvivalEstimate(
        joint=float(joint),
        joint_stderr=float(_binomial_stderr(joint, n)),
        marginal=marg,
        marginal_stderr=_binomial_stderr(marg, n),
        n_paths=n,
    )


def _binomial_stderr(p, n: int):
    """Standard error of a frequency p observed over n paths."""
    return np.sqrt(p * (1.0 - p) / n)


def instrument_payoffs(records: PathRecords, instrument: str) -> tuple[float, float]:
    """Expected payoff and stderr of two-bank default-protection payoffs.

    CDS_i pays 1 - omega_i whenever bank i defaults (at the crossing for
    interior defaults, at clearing for terminal ones); the first-to-default
    basket pays the larger leg.
    """
    if records.n_banks != 2:
        raise ValueError("instrument payoffs are defined for two banks")
    loss = np.where(
        np.isnan(records.default_time), 0.0, 1.0 - records.omega)
    if instrument == "CDS_1":
        payoff = loss[:, 0]
    elif instrument == "CDS_2":
        payoff = loss[:, 1]
    elif instrument == "FTD":
        payoff = loss.max(axis=1)
    else:
        raise ValueError(f"unknown instrument {instrument!r}")
    mean = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / math.sqrt(len(payoff))) if len(payoff) > 1 else 0.0
    return mean, stderr


@dataclass(eq=False)
class GridSurvival:
    x1: np.ndarray
    x2: np.ndarray
    joint: np.ndarray            # (len(x1), len(x2))
    joint_stderr: np.ndarray
    marginal1: np.ndarray
    marginal1_stderr: np.ndarray
    n_paths: int


def two_bank_survival_grid(
    net: BankNetwork,
    horizon: float,
    dt_scaled: float,
    paths: int,
    stream: RngStream | None = None,
    x1_grid: np.ndarray | None = None,
    x2_grid: np.ndarray | None = None,
) -> GridSurvival:
    """Joint and bank-1 marginal survival over a grid of initial scaled
    positions, sharing one driver ensemble across all grid points.

    Works in the scaled coordinates where each bank is a unit-variance
    Brownian motion with constant drift, the interior boundary sits at 0,
    and bank 2's default shifts bank 1's boundaries to their post-removal
    levels.  Probabilistically identical to simulate_paths for two banks
    (asserted in the test suite); the shared drivers make a 5x5 grid cost
    one ensemble instead of 25.
    """
    dom = two_bank_domains(net)
    ctx = dom.ctx
    n_steps = step_count(ctx.scaled_time(horizon), dt_scaled, "dt_scaled")
    require_count("paths", paths, 1)
    sq = math.sqrt(dt_scaled)
    stream = stream or RngStream(0)
    x1_grid = np.asarray(x1_grid if x1_grid is not None else np.linspace(1.0, 4.0, 5))
    x2_grid = np.asarray(x2_grid if x2_grid is not None else np.linspace(1.0, 4.0, 5))
    if not (np.all(np.isfinite(x1_grid)) and np.all(np.isfinite(x2_grid))):
        raise ValueError("grid points must be finite")
    m1_eq, m2_eq = ctx.m_terminal

    joint_hits = np.zeros((len(x1_grid), len(x2_grid)), dtype=np.int64)
    marg_hits = np.zeros_like(joint_hits)

    for start in range(0, paths, GRID_CHUNK):
        width = min(GRID_CHUNK, paths - start)
        noise = PathNoise(stream, width, first_path=start)
        # driver paths per bank from y = 0, (2, width, n_steps + 1): summed
        # unit-variance correlated Brownian steps plus drift
        dw = _correlate(net.corr.cholesky, noise.normals(n_steps, 2))
        dw *= sq
        y = np.zeros((2, width, n_steps + 1))
        np.cumsum(dw.transpose(1, 2, 0), axis=2, out=y[:, :, 1:])
        y[:, :, 1:] += ctx.xi[:, None, None] * dt_scaled * np.arange(1, n_steps + 1)
        p = np.minimum.accumulate(y, axis=2)     # prefix minima
        s1 = np.minimum.accumulate(y[0, :, ::-1], axis=1)[:, ::-1]   # bank 1's suffix minima
        y1_t, y2_t = y[:, :, -1]
        p1_tot, p2_tot = p[:, :, -1]

        for i2, x20 in enumerate(x2_grid):
            # first step index at which bank 2 breaches level 0: y2 <= -x20
            crossed2 = p2_tot <= -x20
            k2 = np.argmax(p[1] <= -x20, axis=1)
            rowidx = np.arange(width)
            p1_at_k2 = p[0, rowidx, k2]
            s1_at_k2 = s1[rowidx, k2]
            for i1, x10 in enumerate(x1_grid):
                # branch A: bank 2 never crossed; classify both at T
                okA = ~crossed2 & (p1_tot > -x10)
                x1t = x10 + y1_t
                x2t = x20 + y2_t
                in_d11 = (x1t > m1_eq) & (x2t > m2_eq)
                in_d10 = (x2t > 0) & (x2t <= m2_eq) & (x1t > dom.theta_curve(0, x2t))
                joint_hits[i1, i2] += int(np.count_nonzero(okA & in_d11))
                margA = okA & (in_d11 | in_d10)
                # branch B: bank 2 crossed at k2; bank 1 must be clean up to
                # k2, clear the shifted boundary afterwards, and finish above
                # the shifted terminal level
                okB = (crossed2
                       & (p1_at_k2 > -x10)
                       & (s1_at_k2 > dom.m1_shift_lt - x10)
                       & (x1t >= dom.m1_shift_eq))
                marg_hits[i1, i2] += int(np.count_nonzero(margA | okB))

    joint = joint_hits / paths
    marg = marg_hits / paths
    return GridSurvival(
        x1=x1_grid, x2=x2_grid,
        joint=joint, joint_stderr=_binomial_stderr(joint, paths),
        marginal1=marg, marginal1_stderr=_binomial_stderr(marg, paths),
        n_paths=paths,
    )
