"""Semi-analytic two-bank survival machinery.

Works in the scaled coordinates of the network module: each bank's
log-distance to its interior default boundary is a unit-variance Brownian
motion with constant drift, absorbed on the positive-quadrant axes.  The
transition density is the classical wedge expansion: a drift tilt times a
Bessel series of orders n*pi/varpi, where cos(varpi) = -rho.

The density and the boundary flux split their points by z = r r'/t.  Below
IMAGE_MIN_Z = 20 they share one series loop that stops per point: a point
leaves once its envelope w_n ive(nu_n, z) (the term without its sines) has
been at most SERIES_TOL times the largest |partial sum| for two orders in a
row; the envelope decreases in n, so it bounds every later term.  The
alternating flux sums cancel, so the flux error is absolute: at most 1.7e-15
at unit prefactor against the exact image sum at rho = 0 and -0.5.  At or
above IMAGE_MIN_Z the points take the finite image sum, which leaves out the
wedge's diffraction integral: zero when alpha = pi/varpi is an integer
(rho = 0, -0.5), otherwise at most e^{-2z}/(2 alpha), below 1e-17 of the
density's peak 1/(4 alpha).  Against a 40-digit series (1,800 random
draws, z in [20, 300]) its rounding error measured at most 9.8e-17
sqrt(z)/(4 alpha) in the density and 4.4e-16 z/(4 alpha) in the flux.

Survival probabilities are then quadratures of this density over the
terminal settlement domains, plus (for the marginal) the time integral of
the one-dimensional shifted survival law against the absorption flux on the
other bank's boundary face.  Every entry point builds its frame through
`network.two_bank_domains`, the one check that the network has two banks,
which builds its scaled coordinates through `network.nondim_context`, the one
check that it is diffusion-only; the Monte Carlo engine covers jumps.

scipy loads on first use, not on import: `norm_cdf` (and so `survival_1d`
and Q1) loads scipy.special, as does `bessel.iv_scaled` at z > 700.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bessel import iv_scaled
from .network import BankNetwork, TwoBankDomains, two_bank_domains

__all__ = [
    "WedgeContext", "norm_cdf", "survival_1d", "wedge_green", "boundary_flux",
    "joint_survival_Q", "marginal_survival_Q1", "q1_standalone", "conservation_check",
]


def norm_cdf(x):
    """Standard normal distribution function."""
    from scipy.special import ndtr
    return ndtr(np.asarray(x, dtype=float))


# a point whose series prefactor is at most this is zero: |ive| <= 1 bounds each term
PRUNE = 1e-30
# the Bessel series stops per point at SERIES_TOL relative to its largest
# partial sum (double-precision resolution), or raises SeriesError after
# SERIES_ORDERS orders
SERIES_ORDERS = 800
SERIES_TOL = 1e-14
# a live point with z = r r'/t at or above IMAGE_MIN_Z takes the finite image
# sum in place of the Bessel series
IMAGE_MIN_Z = 20.0
# an image angle within SEAM_TOL of -pi or pi lies on the image window's seam;
# the image angles' rounding measured at most one ulp of pi (4.4e-16)
SEAM_TOL = 1e-14
# the terminal quadrature is cut TAIL_SIGMAS standard deviations above the
# drifted source: the Gaussian tail beyond it is below 1e-16
TAIL_SIGMAS = 8.5
# geometric panels toward a quadrant axis: the smallest spans 2**-30 of the cut
GRADED_LEVELS = 30


class SeriesError(RuntimeError):
    """Bessel series failed to reach the truncation target."""


@dataclass
class WedgeContext:
    rho: float
    xi: np.ndarray                 # scaled drift vector (2,)
    rho_bar: float
    varpi: float                   # wedge angle, cos(varpi) = -rho
    theta: np.ndarray              # C^{-1} xi (drift tilt)
    theta_dot_xi: float

    @classmethod
    def build(cls, rho: float, xi) -> "WedgeContext":
        if not -1.0 < rho < 1.0:
            raise ValueError("correlation must lie strictly inside (-1, 1)")
        xi = np.asarray(xi, dtype=float)
        rho_bar = math.sqrt(1.0 - rho * rho)
        varpi = math.acos(-rho)
        cinv = np.array([[1.0, -rho], [-rho, 1.0]]) / (rho_bar * rho_bar)
        theta = cinv @ xi
        return cls(rho=rho, xi=xi, rho_bar=rho_bar, varpi=varpi,
                   theta=theta, theta_dot_xi=float(theta @ xi))

    def order(self, n: int) -> float:
        return n * math.pi / self.varpi

    def polar(self, x1, x2):
        """Radial/angular coordinates of the transformed standard plane."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        r = np.sqrt((x1 * x1 - 2.0 * self.rho * x1 * x2 + x2 * x2)) / self.rho_bar
        phi = np.arctan2(self.rho_bar * x1, x2 - self.rho * x1)
        return r, phi


def survival_1d(x: float, xi: float, m_lt: float, m_eq: float, tau: float):
    """Closed-form survival of drifted Brownian motion: never touch m_lt on
    [0, tau] and finish at or above m_eq.  The reflection formula holds for
    m_eq >= m_lt; below m_lt a surviving path already finishes above m_eq,
    so the law is evaluated at max(m_eq, m_lt)."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("source point must be finite")
    m_eq = max(m_eq, m_lt)
    sq = math.sqrt(tau)
    first = norm_cdf(-(m_eq - x - xi * tau) / sq)
    refl = np.exp(-2.0 * xi * (x - m_lt)) * norm_cdf(
        -(m_eq + x - 2.0 * m_lt - xi * tau) / sq)
    out = first - refl
    out = np.where(x <= m_lt, 0.0, np.clip(out, 0.0, 1.0))
    return out if out.ndim else float(out)


def _source(x_src) -> tuple[float, float]:
    """The source point as two floats, both finite and positive."""
    xs1, xs2 = float(x_src[0]), float(x_src[1])
    if not (0 < xs1 < math.inf and 0 < xs2 < math.inf):
        raise ValueError(f"source point must be interior, got ({xs1}, {xs2})")
    return xs1, xs2


def _bessel_series(ctx: WedgeContext, z: np.ndarray, phi, phi_src: float,
                   slope: bool) -> np.ndarray:
    """Per point, the density series Sum_n ive(nu_n, z) sin(nu_n phi)
    sin(nu_n phi_src), `phi` an array matching `z`, or with `slope` its
    derivative in phi at the one angle `phi`, whose terms carry nu_n
    cos(nu_n phi).  A point leaves once its envelope w_n ive(nu_n, z) (w_n
    = 1, or nu_n with `slope`) has been <= SERIES_TOL * (largest |partial
    sum| of any point) for two orders in a row: I_nu(z) decreases in nu,
    and so does nu I_nu(z) once nu^2 exceeds about z, so the envelope bounds
    every later term.  The bound is relative to the largest partial sum, so
    where the sums cancel (the alternating flux) the error is absolute.
    SeriesError if a point is still live after SERIES_ORDERS orders."""
    total = np.empty_like(z)
    idx = np.arange(z.size)
    acc = np.zeros_like(z)
    term = np.empty_like(z)
    quiet = np.zeros(z.size, dtype=int)
    env = np.full_like(z, np.inf)
    scale = 0.0
    for n in range(1, SERIES_ORDERS + 1):
        nu = ctx.order(n)
        sign = math.sin(nu * phi_src)
        env = iv_scaled(nu, z)
        # in place, in the order of acc += (nu ive) (cos(nu phi) sign), or
        # of acc += (ive sin(nu phi)) sign
        if slope:
            env *= nu
            np.multiply(env, math.cos(nu * phi) * sign, out=term)
        else:
            np.multiply(phi, nu, out=term)
            np.sin(term, out=term)
            term *= env
            term *= sign
        acc += term
        scale = max(scale, float(acc.max()), -float(acc.min()))
        quiet += 1
        quiet *= env <= SERIES_TOL * max(scale, 1e-300)
        done = quiet >= 2
        if np.any(done):
            total[idx[done]] = acc[done]
            keep = ~done
            if not np.any(keep):
                return total
            idx, z, acc, quiet, env = (a[keep] for a in (idx, z, acc, quiet, env))
            term = term[:z.size]
            if not slope:
                phi = phi[keep]
    raise SeriesError(
        f"Bessel series not converged after {SERIES_ORDERS} terms at {idx.size} "
        f"point(s); largest envelope {float(np.max(env)):.3e}"
    )


def _image_sum(ctx: WedgeContext, z: np.ndarray, phi, phi_src: float,
               slope: bool = False) -> np.ndarray:
    """Per point, the density series Sum_n ive(nu_n, z) sin(nu_n phi)
    sin(nu_n phi_src) as its finite image sum, or with `slope` its
    derivative in phi:
    (1/4 alpha) [Sum_j e^{-2z sin^2(psi-_j / 2)} - Sum_j e^{-2z sin^2(psi+_j / 2)}]
    with alpha = pi/varpi and psi-+_j = phi -+ phi_src + 2 j varpi over the
    images in [-pi, pi].  An image within SEAM_TOL of -pi or pi lies on the
    seam and takes half weight: at integer alpha its partner 2 pi away lies
    on the other side, and rounding may place both images inside the window
    or both outside it.  The omitted diffraction integral is zero at
    integer alpha and otherwise at most e^{-2z}/(2 alpha) in the density.
    `phi` is an array matching `z`, or one angle for every point."""
    period = 2.0 * ctx.varpi
    out = np.zeros_like(z)
    for add, base in ((np.add, phi - phi_src), (np.subtract, phi + phi_src)):
        # one image either side of the window's range, for rounding; the
        # window test decides
        first = math.ceil((-math.pi - np.max(base)) / period) - 1
        last = math.floor((math.pi - np.min(base)) / period) + 1
        for j in range(first, last + 1):
            psi = base + j * period
            seam = np.abs(np.abs(psi) - math.pi) <= SEAM_TOL
            inside = ((psi > -math.pi) & (psi <= math.pi)) | seam
            if not np.any(inside):
                continue
            # cos(psi) - 1 = -2 sin^2(psi/2), without the cancellation
            half = np.sin(0.5 * psi)
            term = np.exp(-2.0 * z * half * half)
            if slope:
                term *= -z * np.sin(psi)
            if np.any(seam):
                term[seam] *= 0.5
            add(out, term, out=out, where=inside)
    return out * (ctx.varpi / (4.0 * math.pi))


def _evaluate(ctx: WedgeContext, prefactor: np.ndarray, z: np.ndarray, phi,
              phi_src: float, slope: bool = False) -> np.ndarray:
    """prefactor times the density series at (z, phi), or with `slope` its
    derivative in phi at the one angle `phi`: the image sum where z >=
    IMAGE_MIN_Z, the Bessel series below it, and zero where |prefactor| is
    at most PRUNE."""
    out = np.zeros_like(prefactor)
    live = np.abs(prefactor) > PRUNE
    if np.any(live):
        z = z[live]
        if not slope:
            phi = phi[live]
        far = z >= IMAGE_MIN_Z
        near = ~far
        sums = np.empty_like(z)
        if np.any(far):
            sums[far] = _image_sum(ctx, z[far], phi if slope else phi[far], phi_src, slope)
        if np.any(near):
            sums[near] = _bessel_series(ctx, z[near], phi if slope else phi[near], phi_src, slope)
        out[live] = prefactor[live] * sums
    return out


def wedge_green(ctx: WedgeContext, t: float, x1, x2, x_src) -> np.ndarray:
    """Absorbed transition density G(t, X; X') on the open quadrant; zero
    where the series prefactor is at most PRUNE."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("evaluation points must be finite")
    xs1, xs2 = _source(x_src)
    r, phi = ctx.polar(x1, x2)
    r_src, phi_src = ctx.polar(xs1, xs2)
    gauss = np.exp(-((r - r_src) ** 2) / (2.0 * t))
    tilt = np.exp(-0.5 * ctx.theta_dot_xi * t
                  + ctx.theta[0] * (x1 - xs1) + ctx.theta[1] * (x2 - xs2))
    scale = tilt * 2.0 / (ctx.rho_bar * ctx.varpi * t) * gauss
    return _evaluate(ctx, scale, r * r_src / t, phi, phi_src)


def boundary_flux(ctx: WedgeContext, t, coord, x_src, face: int = 2) -> np.ndarray:
    """Absorption flux density g_k = G_{X_k}/2 on the face {X_k = 0}.

    face=2 gives the flux through bank 2's boundary as a function of X_1
    (the alternating series); face=1 the mirror through bank 1's boundary as
    a function of X_2.  `t` may be a scalar or an array matching `coord`,
    so whole time-space quadrature grids evaluate in one series sweep.
    """
    if face not in (1, 2):
        raise ValueError(f"face must be 1 or 2, got {face!r}")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("t must be positive and finite")
    coord = np.asarray(coord, dtype=float)
    if not np.all(np.isfinite(coord)):
        raise ValueError("evaluation points must be finite")
    t, coord = np.broadcast_arrays(t, coord)
    xs1, xs2 = _source(x_src)
    r_src, phi_src = ctx.polar(xs1, xs2)
    gauss = np.exp(-((coord / ctx.rho_bar - r_src) ** 2) / (2.0 * t))
    drift_component = ctx.theta[0] if face == 2 else ctx.theta[1]
    tilt = np.exp(-0.5 * ctx.theta_dot_xi * t + drift_component * coord
                  - ctx.theta[0] * xs1 - ctx.theta[1] * xs2)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(coord > 0, 2.0 / (ctx.varpi * t * coord), 0.0)
    # the inward normal derivative: +d/dphi on face 1 (phi = 0), -d/dphi on
    # face 2 (phi = varpi, where cos(nu_n varpi) = (-1)^n alternates the series)
    face_phi, inward = (0.0, 1.0) if face == 1 else (ctx.varpi, -1.0)
    return _evaluate(ctx, inward * 0.5 * tilt * base * gauss,
                     coord * r_src / (ctx.rho_bar * t), face_phi, phi_src, slope=True)


# ---------------------------------------------------------------------------
# quadrature helpers


@functools.cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.
    Every caller shares the arrays, so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_on_edges(edges, order: int):
    """Composite rule: `order` Gauss-Legendre nodes on each panel between
    consecutive edges."""
    nodes, weights = _gl_rule(order)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * nodes).ravel(), (half * weights).ravel()


def _gl_panels(a: float, b: float, panels: int, order: int):
    return _gl_on_edges(np.linspace(a, b, panels + 1), order)


def _gl_panels_graded(cut: float, panels: int, order: int):
    """Panels on (0, cut] refined geometrically toward 0, where absorbed
    densities behave like fractional powers x^(nu_1 - 1)."""
    edges = [cut * 0.5 ** j for j in range(GRADED_LEVELS, 0, -1)]
    edges = [0.0] + edges + list(np.linspace(cut * 0.5, cut, max(panels // 2, 2) + 1)[1:])
    return _gl_on_edges(edges, order)


@dataclass
class QuadratureSpec:
    panels: int = 8
    order: int = 16
    time_panels: int = 24
    target: float = 1e-6


def _upper_cuts(x_src, xi, t: float) -> tuple[float, float]:
    """Per axis, the cut TAIL_SIGMAS standard deviations above the drifted
    source, which must be interior."""
    return tuple(x + max(d * t, 0.0) + TAIL_SIGMAS * math.sqrt(t) + 1.0
                 for x, d in zip(_source(x_src), xi))


def _terminal_integral(wctx: WedgeContext, t: float, x_src,
                       lower1, upper1, lower2: float, upper2: float,
                       spec: QuadratureSpec) -> float:
    """Integral of G(t, .) over {lower1(x2) < x1 < upper1, lower2 < x2 < upper2},
    evaluated as one flat batch so the Bessel series runs once."""
    x2, w2 = _gl_panels(lower2, upper2, spec.panels, spec.order)
    xs1, xs2, ws = [], [], []
    for x2v, w2v in zip(x2, w2):
        lo1 = float(lower1(x2v)) if callable(lower1) else float(lower1)
        if lo1 >= upper1:
            continue
        x1, w1 = _gl_panels(lo1, upper1, spec.panels, spec.order)
        xs1.append(x1)
        xs2.append(np.full_like(x1, x2v))
        ws.append(w1 * w2v)
    if not xs1:
        return 0.0
    g = wedge_green(wctx, t, np.concatenate(xs1), np.concatenate(xs2), x_src)
    return float(np.dot(np.concatenate(ws), g))


def _flux_integral(wctx: WedgeContext, t_bar: float, x_src, face: int,
                   nodes, weights, spec: QuadratureSpec, survival=lambda tau: 1.0) -> float:
    """Integral over s in [0, T] and the face nodes of the boundary flux at
    time s times survival(T - s), as one flat boundary_flux batch.
    Substituting s = T - u^2 makes a remaining-life survival smooth in the
    integration variable (it depends on u = sqrt(tau) directly)."""
    xs_other = float(x_src[face - 1])
    u_nodes, u_weights = _gl_panels(0.0, math.sqrt(t_bar), spec.time_panels, 10)
    t_all, w_all = [], []
    for u, wu in zip(u_nodes, u_weights):
        s = t_bar - u * u
        # flux bound: exp(-X'^2 / 2s) caps the absorbed mass density
        if s <= 0.0 or xs_other * xs_other / (2.0 * s) > 42.0:
            continue
        t_all.append(np.full_like(nodes, s))
        w_all.append(2.0 * u * wu * weights * survival(u * u))
    if not t_all:
        return 0.0
    g = boundary_flux(wctx, np.concatenate(t_all), np.tile(nodes, len(t_all)),
                      x_src, face=face)
    return float(np.dot(np.concatenate(w_all), g))


def _refined(value, spec: QuadratureSpec, name: str) -> tuple[float, float]:
    """value(spec) on 1.5 times the panels of spec, and its distance from
    value(spec) as the error estimate, which must meet spec.target."""
    coarse = value(spec)
    fine = value(replace(spec, panels=spec.panels + spec.panels // 2,
                         time_panels=spec.time_panels + spec.time_panels // 2))
    err = abs(fine - coarse)
    if err > spec.target:
        raise RuntimeError(
            f"{name} quadrature achieved only {err:.2e} (target {spec.target:.2e})"
        )
    return fine, err


def _frame(net: BankNetwork, horizon: float) -> tuple[TwoBankDomains, WedgeContext, float]:
    """The two-bank domains, their wedge context and the scaled horizon."""
    dom = two_bank_domains(net)
    wctx = WedgeContext.build(float(net.corr.rho[0, 1]), dom.ctx.xi)
    return dom, wctx, dom.ctx.scaled_time(horizon)


def joint_survival_Q(net: BankNetwork, x_src, horizon: float,
                     spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Probability that neither bank touches its interior boundary on
    [0, T] and both settle in full at T; returns (value, error estimate)."""
    dom, wctx, t_bar = _frame(net, horizon)
    m1_eq, m2_eq = dom.ctx.m_terminal
    u1, u2 = _upper_cuts(x_src, wctx.xi, t_bar)
    return _refined(
        lambda s: _terminal_integral(wctx, t_bar, x_src, m1_eq, u1, m2_eq, u2, s),
        spec or QuadratureSpec(), "joint-survival")


def q1_standalone(net: BankNetwork, x1, horizon: float):
    """Bank 1 survival if bank 2 could never default: original boundaries."""
    ctx = two_bank_domains(net).ctx
    return survival_1d(x1, ctx.xi[0], 0.0, float(ctx.m_terminal[0]), ctx.scaled_time(horizon))


def marginal_survival_Q1(net: BankNetwork, x_src, horizon: float,
                         spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Bank 1 survival probability: terminal mass over the domains where
    bank 1 settles in full plus the flux of bank-2 defaults followed by
    bank 1 surviving alone behind its shifted boundaries."""
    dom, wctx, t_bar = _frame(net, horizon)
    return _refined(lambda s: _q1_once(wctx, dom, x_src, t_bar, s),
                    spec or QuadratureSpec(), "marginal-survival")


def _q1_once(wctx: WedgeContext, dom: TwoBankDomains, x_src, t_bar: float,
             spec: QuadratureSpec) -> float:
    m1_eq, m2_eq = dom.ctx.m_terminal
    m1_shift_lt, m1_shift_eq = dom.m1_shift_lt, dom.m1_shift_eq
    u1, u2 = _upper_cuts(x_src, wctx.xi, t_bar)

    # terminal: D(1,1) plus the curvilinear bank-2-defaults strip D(1,0)
    both = _terminal_integral(wctx, t_bar, x_src, m1_eq, u1, m2_eq, u2, spec)
    strip = _terminal_integral(
        wctx, t_bar, x_src, lambda x2: dom.theta_curve(0, x2), u1, 0.0, m2_eq, spec)

    # flux through bank 2's face against the shifted one-dimensional law,
    # whose remaining-life survival develops a step at the shifted terminal
    # level as tau -> 0; panel edges placed there keep the rule spectral
    lo_nodes, lo_w = _gl_panels(m1_shift_lt, m1_shift_eq, max(spec.panels // 2, 2),
                                spec.order)
    hi_nodes, hi_w = _gl_panels(m1_shift_eq, u1, spec.panels, spec.order)
    x1_nodes = np.concatenate([lo_nodes, hi_nodes])

    def remaining_life(tau):
        if tau <= 1e-14:
            return (x1_nodes >= m1_shift_eq).astype(float)
        return survival_1d(x1_nodes, wctx.xi[0], m1_shift_lt, m1_shift_eq, tau)

    flux_total = _flux_integral(wctx, t_bar, x_src, 2, x1_nodes,
                                np.concatenate([lo_w, hi_w]), spec, remaining_life)

    return both + strip + flux_total


def conservation_check(net: BankNetwork, x_src, horizon: float) -> dict:
    """Interior mass plus cumulative boundary outflow; must total 1, on the
    default QuadratureSpec."""
    spec = QuadratureSpec()
    _, wctx, t_bar = _frame(net, horizon)
    u1, u2 = _upper_cuts(x_src, wctx.xi, t_bar)
    interior = _terminal_integral(wctx, t_bar, x_src, 0.0, u1, 0.0, u2, spec)

    flux = {face: _flux_integral(wctx, t_bar, x_src, face,
                                 *_gl_panels_graded(cut, spec.panels, spec.order), spec)
            for face, cut in ((2, u1), (1, u2))}
    total = interior + flux[1] + flux[2]
    return {"interior": interior, "flux_face1": flux[1],
            "flux_face2": flux[2], "total": total}
