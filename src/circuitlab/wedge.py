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
sqrt(z)/(4 alpha) in the density and 4.4e-16 z/(4 alpha) in the flux.  At
alpha = 2 and 3 the flux takes the image sum from FLUX_IMAGE_MIN_Z = 2
(`_image_min_z`), where it meets the series' own bound; the density keeps
the series below IMAGE_MIN_Z, as its image sum cancels near the axes.

Survival probabilities are then quadratures of this density over the
terminal settlement domains, plus (for the marginal) the time integral of
the one-dimensional shifted survival law against the absorption flux on the
other bank's boundary face.  That time integral converges only
algebraically on uniform panels, so its rules are graded geometrically
toward their layers (`_graded_edges`): both ends of the time rule, and on
the face toward the source coordinate.  On the default QuadratureSpec, Q1
at the source (2, 2) and horizon 12.5 lies within 7e-16 of a 32-panel,
96-time-panel reference at rho = 0, -0.5 and 0.3, where the uniform rule it
replaced (8 panels, 24 time panels) was 6e-12 to 1.2e-11 off; Q is within
6.3e-16.  `_refined`'s error estimate compares the spec with one whose every
uniform panel count grows (at least 1.5 times, rounded up), and the level
counts are fixed, so it measures the uniform panels' part.  Every entry
point builds its frame through `network.two_bank_domains`, the one check
that the network has two banks, which builds its scaled coordinates through
`network.nondim_context`, the one check that it is diffusion-only; the Monte
Carlo engine covers jumps.

The series takes ive(nu, z) = I_nu(z) e^{-z} from `iv_scaled`, the wedge's
own power series on 0 <= z <= SERIES_MAX_Z = 25 (ValueError above).  scipy
loads on first use, not on import, and only as scipy.special: `ndtr`
through `norm_cdf`, and `log_ndtr` for `survival_1d`'s reflection term (and
so Q1).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .network import BankNetwork, TwoBankDomains, two_bank_domains
from .rng import require_count

__all__ = [
    "WedgeContext", "iv_scaled", "norm_cdf", "survival_1d", "wedge_green", "boundary_flux",
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
# sum in place of the Bessel series (see `_image_min_z`); so does a flux
# point at or above FLUX_IMAGE_MIN_Z when alpha = pi/varpi lies within
# ALPHA_ULPS ulps of one of FLUX_IMAGE_ALPHAS (rho = 0 gives 2.0, rho = -0.5
# 2.9999999999999996), where the image sum is exact at every z
IMAGE_MIN_Z = 20.0
FLUX_IMAGE_MIN_Z = 2.0
FLUX_IMAGE_ALPHAS = (2, 3)
ALPHA_ULPS = 4
# an image angle within SEAM_TOL of -pi or pi lies on the image window's seam;
# the image angles' rounding measured at most one ulp of pi (4.4e-16)
SEAM_TOL = 1e-14
# every quadrature range is cut TAIL_SIGMAS standard deviations either side
# of the drifted source (`_span`): the Gaussian tail beyond each is below 1e-16
TAIL_SIGMAS = 8.5
# geometric levels toward a quadrant axis, the smallest panel 2**-30 of the
# graded end piece: the boundary flux there behaves like x^(nu_1 - 1), a
# negative power for rho > 0; the density vanishes like x^nu_1 and needs
# fewer levels
GRADED_LEVELS = 30
INTERIOR_LEVELS = 8
# geometric levels at each end of the flux time rule in u = sqrt(T - s), and
# on bank 2's face toward the source coordinate x1' (see `_flux_integral`
# and `_q1_once`)
TIME_LEVELS = 8
FACE_LEVELS = 3
# the same for `conservation_check`, whose faces run to the axes: a source
# near a face puts a first-passage peak of width about its distance on that
# face at s -> 0, which Q1's levels leave unresolved over long horizons
# (1 - 6.7e-3 at rho = -0.9, source (0.3, 0.3), calendar horizon 150)
CHECK_TIME_LEVELS = 16
CHECK_FACE_LEVELS = 8
# a flux quadrature evaluates at most FLUX_BATCH points per boundary_flux
# call (whole time nodes each), which bounds the series' working arrays: Q1
# on the default spec takes one call per rule (44,640 and 57,024 points at
# the benchmark's source), the conservation check's finer rules four each
FLUX_BATCH = 2**16


class SeriesError(RuntimeError):
    """Bessel series failed to reach the truncation target."""


class QuadratureError(RuntimeError):
    """A survival quadrature's error estimate missed its target."""


# The density series takes ive(nu, z) = I_nu(z) e^{-z} from its power series
# on 0 <= z <= SERIES_MAX_Z.  Its terms are all positive, so it is
# cancellation-free, and it is about 9x faster than scipy.special.ive on the
# wedge's points: over the 10.1 M point-orders of one `deterministic`
# benchmark pass's wedge calls on the uniform quadrature rule (492 calls, all
# below IMAGE_MIN_Z) it took 0.78-0.92 s against ive's 7.8-8.1 s, best of 3
# in each of two runs on a 2-vCPU Xeon.  The graded rule cut a pass to 4.46 M
# point-orders in 492 calls, and the flux image sum at integer alpha to
# 2.71 M in 418 (`bench/run.py --trace 1`, seed 1).  Relative accuracy 1e-12
# against arbitrary-precision values.
SERIES_MAX_Z = 25.0
_SMALL_Z = 3.0


def iv_scaled(nu: float, z) -> np.ndarray | float:
    """I_nu(z) * exp(-z) for nu >= 0 and 0 <= z <= SERIES_MAX_Z, vectorized
    over z; ValueError outside that range.  A point whose scaled first term
    underflows gets the series' own value, below 1e-300."""
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"order must be finite and non-negative, got {nu}")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    # read-only from here on, so a float array from the caller is not copied
    z_arr = np.atleast_1d(z_arr)
    z_min, z_max = z_arr.min(initial=math.inf), z_arr.max(initial=0.0)
    if not (z_min >= 0.0 and z_max <= SERIES_MAX_Z):
        raise ValueError(f"argument must be non-negative and at most "
                         f"SERIES_MAX_Z = {SERIES_MAX_Z:g}, got [{z_min}, {z_max}]")
    out = np.empty_like(z_arr)
    # two buckets bound the iteration count; z = 0 gives 1 at nu = 0, else 0
    small = z_arr <= _SMALL_Z
    for sel, z_hi in ((small, _SMALL_Z), (~small, SERIES_MAX_Z)):
        if np.any(sel):
            out[sel] = _series_scaled(nu, z_arr[sel], z_hi)
    return float(out[0]) if scalar else out


def _series_scaled(nu: float, z: np.ndarray, z_hi: float) -> np.ndarray:
    """Forward power series times e^{-z}, from the scaled first term, with
    the iteration count sized by z_hi."""
    # (z/2)^nu is 1 at nu = 0: nu log(z/2) would be 0 * -inf = NaN once z/2
    # underflows to 0; at nu > 0 that -inf is the underflowing first term
    with np.errstate(divide="ignore"):
        log_t0 = (nu * np.log(0.5 * z) if nu > 0 else 0.0) - math.lgamma(nu + 1.0) - z
    t = np.exp(log_t0)
    s = t.copy()
    q = 0.25 * z * z
    k_star = 0.5 * (-(nu + 1.0) + math.sqrt((nu + 1.0) ** 2 + z_hi * z_hi))
    k_max = int(k_star + 12.0 * math.sqrt(max(z_hi, 1.0)) + 30.0)
    # t = t * q / d; s = s + t, in place and in that order
    for k in range(k_max):
        t *= q
        t /= (k + 1.0) * (nu + k + 1.0)
        s += t
        if (k & 15) == 15 and np.all(t <= 1e-17 * s):
            break
    return s


@dataclass(eq=False)
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


def survival_1d(x: float, xi: float, m_lt: float, m_eq: float, tau):
    """Closed-form survival of drifted Brownian motion: never touch m_lt on
    [0, tau] (tau positive, or an array of them against ``x``) and finish at
    or above m_eq.  The reflection formula holds for m_eq >= m_lt; below m_lt
    a surviving path already finishes above m_eq, so the law is evaluated at
    max(m_eq, m_lt).  The reflection term is taken in log space, exp(-2 xi
    (x - m_lt) + log Phi(.)), so a source far above m_lt with xi < 0 meets no
    inf * 0, and at max(x, m_lt), so one far below it with xi > 0 cannot."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau) & (tau > 0)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("source point must be finite")
    m_eq = max(m_eq, m_lt)
    sq = np.sqrt(tau)
    first = norm_cdf(-(m_eq - x - xi * tau) / sq)
    from scipy.special import log_ndtr
    x_up = np.maximum(x, m_lt)
    refl = np.exp(-2.0 * xi * (x_up - m_lt)
                  + log_ndtr(-(m_eq + x_up - 2.0 * m_lt - xi * tau) / sq))
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
    `_image_min_z`, the Bessel series below it, and zero where |prefactor|
    is at most PRUNE."""
    out = np.zeros_like(prefactor)
    live = np.abs(prefactor) > PRUNE
    if np.any(live):
        z = z[live]
        if not slope:
            phi = phi[live]
        far = z >= _image_min_z(ctx, slope)
        near = ~far
        sums = np.empty_like(z)
        if np.any(far):
            sums[far] = _image_sum(ctx, z[far], phi if slope else phi[far], phi_src, slope)
        if np.any(near):
            sums[near] = _bessel_series(ctx, z[near], phi if slope else phi[near], phi_src, slope)
        out[live] = prefactor[live] * sums
    return out


def _image_min_z(ctx: WedgeContext, slope: bool) -> float:
    """The z from which the density (or with `slope` the flux) takes the
    image sum: FLUX_IMAGE_MIN_Z for the flux at an alpha of
    FLUX_IMAGE_ALPHAS, else IMAGE_MIN_Z.

    At integer alpha the diffraction term vanishes, and within ALPHA_ULPS
    ulps of one it scales with sin(n pi alpha) e^{-2z}, at the rounding
    level.  Against a deep scipy.special.ive series at alpha = 2 and 3
    (sources 1-99% of the wedge angle), the flux image sum was off by at
    most 2.7e-14 of the sum of the series' |terms| at z in [1, 5], inside
    the series' own 2e-13, but 1.7e-12 at z in [0.1, 1], where it cancels.
    At alpha = 4 and 5 it cancels near the faces (2.3e-13 and 8.3e-13 at z
    in [2, 3], sources 0.1% of the angle off a face), so those keep the
    series.  The density's image sum cancels near the axes at every alpha
    (4.5e-11 at z in [0.1, 1] and 6.7e-13 at z in [1, 2]), so it keeps the
    series below IMAGE_MIN_Z."""
    alpha = math.pi / ctx.varpi
    near = round(alpha)
    if (slope and near in FLUX_IMAGE_ALPHAS
            and abs(alpha - near) <= ALPHA_ULPS * math.ulp(alpha)):
        return FLUX_IMAGE_MIN_Z
    return IMAGE_MIN_Z


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
    # one exponential of the drift tilt's and the Gaussian's summed exponents:
    # apart, the tilt overflows where the Gaussian underflows as rho -> -1
    log_tilt = (-0.5 * ctx.theta_dot_xi * t
                + ctx.theta[0] * (x1 - xs1) + ctx.theta[1] * (x2 - xs2))
    weight = np.exp(log_tilt - (r - r_src) ** 2 / (2.0 * t))
    scale = weight * 2.0 / (ctx.rho_bar * ctx.varpi * t)
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
    drift_component = ctx.theta[0] if face == 2 else ctx.theta[1]
    # one exponential of the summed exponents, as in wedge_green
    log_tilt = (-0.5 * ctx.theta_dot_xi * t + drift_component * coord
                - ctx.theta[0] * xs1 - ctx.theta[1] * xs2)
    weight = np.exp(log_tilt - (coord / ctx.rho_bar - r_src) ** 2 / (2.0 * t))
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(coord > 0, 2.0 / (ctx.varpi * t * coord), 0.0)
    # the inward normal derivative: +d/dphi on face 1 (phi = 0), -d/dphi on
    # face 2 (phi = varpi, where cos(nu_n varpi) = (-1)^n alternates the series)
    face_phi, inward = (0.0, 1.0) if face == 1 else (ctx.varpi, -1.0)
    return _evaluate(ctx, inward * 0.5 * weight * base,
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


def _graded_edges(a: float, b: float, panels: int, lo: int = 0, hi: int = 0) -> np.ndarray:
    """Panel edges on [a, b]: `panels` uniform panels in the middle and one
    piece of the same width at each graded end, split at h 2^-j (j = 1 ..
    levels) from that end: `lo` levels toward a, `hi` toward b."""
    h = (b - a) / (panels + bool(lo) + bool(hi))
    parts = [np.linspace(a + h if lo else a, b - h if hi else b, panels + 1)]
    if lo:
        parts.insert(0, a + h * np.r_[0.0, 0.5 ** np.arange(lo, 0, -1)])
    if hi:
        parts.append(b - h * np.r_[0.5 ** np.arange(1, hi + 1), 0.0])
    return np.concatenate(parts)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre settings: `panels` uniform panels of `order`
    nodes per spatial range, `time_panels` uniform panels of 10 nodes in
    u = sqrt(T - s), and the `target` the error estimate must meet.  The
    geometric levels at the integrands' layers are module constants."""
    panels: int = 4
    order: int = 16
    time_panels: int = 2
    target: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("panels", "order", "time_panels"):
            require_count(name, getattr(self, name), 1)
        if not (isinstance(self.target, numbers.Real) and 0 < self.target < math.inf):
            raise ValueError(f"target must be positive and finite, got {self.target!r}")


def _span(x_src, xi, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per axis, the range (lo, hi) that holds the source's Gaussian at time
    t: TAIL_SIGMAS standard deviations below and above the drifted source,
    which must be interior.  Every terminal and face rule is cut to it, so a
    far source's nodes span its Gaussian, not the distance to a boundary."""
    return tuple((x + min(d * t, 0.0) - TAIL_SIGMAS * math.sqrt(t),
                  x + max(d * t, 0.0) + TAIL_SIGMAS * math.sqrt(t))
                 for x, d in zip(_source(x_src), xi))


def _terminal_integral(wctx: WedgeContext, t: float, x_src, floor1, floor2: float,
                       spec: QuadratureSpec, levels: int = 0, top2: float = math.inf) -> float:
    """Integral of G(t, .) over {floor1(x2) < x1, floor2 < x2 < top2} cut to
    the source's `_span`, evaluated as one flat batch so the Bessel series
    runs once; a range the span leaves empty contributes 0.  Each axis takes
    `levels` geometric levels toward its lower limit."""
    (lo1, hi1), (lo2, hi2) = _span(x_src, wctx.xi, t)
    lower2, upper2 = max(floor2, lo2), min(top2, hi2)
    if lower2 >= upper2:
        return 0.0
    x2, w2 = _gl_on_edges(_graded_edges(lower2, upper2, spec.panels, lo=levels), spec.order)
    xs1, xs2, ws = [], [], []
    for x2v, w2v in zip(x2, w2):
        lower1 = max(float(floor1(x2v)) if callable(floor1) else float(floor1), lo1)
        if lower1 >= hi1:
            continue
        x1, w1 = _gl_on_edges(_graded_edges(lower1, hi1, spec.panels, lo=levels), spec.order)
        xs1.append(x1)
        xs2.append(np.full_like(x1, x2v))
        ws.append(w1 * w2v)
    if not xs1:
        return 0.0
    g = wedge_green(wctx, t, np.concatenate(xs1), np.concatenate(xs2), x_src)
    return float(np.dot(np.concatenate(ws), g))


def _flux_integral(wctx: WedgeContext, t_bar: float, x_src, face: int,
                   nodes, weights, spec: QuadratureSpec, survival=lambda tau: 1.0,
                   time_levels: int = TIME_LEVELS) -> float:
    """Integral over s in [0, T] and the face nodes of the boundary flux at
    time s times survival(T - s), in flat boundary_flux batches of at most
    FLUX_BATCH points; `survival` takes every kept remaining life at once, as
    a column, and gives a row over the nodes for each.  Substituting s = T -
    u^2 makes a remaining-life survival smooth in the integration variable
    (it depends on u = sqrt(tau) directly).

    The u rule on [0, sqrt(T)] keeps spec.time_panels uniform panels in the
    middle and `time_levels` geometric levels at each end, where the integrand
    has a layer: at u -> 0 the remaining-life survival steps at the shifted
    terminal level, and at u -> sqrt(T) sits the first-passage peak at s ->
    0 (s ~ 2 sqrt(T) (sqrt(T) - u)).  On uniform panels Q1's error fell only
    as about (time panels)^-3, 2.8e-11 at 24; graded, 2 time panels reach
    1e-15 at the benchmark's source, and 6 levels instead of 8 left errors
    up to 7e-10 at sources near bank 2's boundary (x2' = 0.5, horizon 40)."""
    xs_other = float(x_src[face - 1])
    u, wu = _gl_on_edges(
        _graded_edges(0.0, math.sqrt(t_bar), spec.time_panels, time_levels, time_levels), 10)
    s = t_bar - u * u
    # flux bound: the face coordinate's own first passage at s, whose
    # density carries exp(-d^2 / 2s) at the drifted distance d > 0
    d = xs_other + wctx.xi[face - 1] * s
    far = np.divide(d * d, 2.0 * s, out=np.zeros_like(s), where=s > 0.0) > 42.0
    keep = (s > 0.0) & ~((d > 0.0) & far)
    u, wu, s = u[keep, None], wu[keep, None], s[keep]
    w = 2.0 * u * wu * weights * survival(u * u)
    per_call = max(1, FLUX_BATCH // len(nodes))
    total = 0.0
    for k in range(0, len(s), per_call):
        ts = np.repeat(s[k:k + per_call], len(nodes))
        g = boundary_flux(wctx, ts, np.resize(nodes, len(ts)), x_src, face=face)
        total += float(np.dot(w[k:k + per_call].ravel(), g))
    return total


def _lower_face_panels(panels: int) -> int:
    """Panels of bank 2's lower face range [m1_shift_lt, m1_shift_eq]."""
    return max(panels // 2, 2)


def _finer(panels: int) -> int:
    """The refined panel count: 1.5 times `panels` rounded up, raised until
    every panel count the spatial rules build from it grows, so that the
    error estimate sees every range's error.  Those counts are `panels` on
    the terminal ranges and the upper face range, `_lower_face_panels` on
    the lower one, and on each side of x1' half a face range's, rounded up
    (`_edges_toward`).  4 gives 6; 2 gives 6, where 3 would leave the lower
    face range at 2 panels."""
    def counts(n: int) -> tuple[int, int, int, int]:
        lo = _lower_face_panels(n)
        return n, (n + 1) // 2, lo, (lo + 1) // 2

    fine = panels + (panels + 1) // 2
    while not all(f > c for f, c in zip(counts(fine), counts(panels))):
        fine += 1
    return fine


def _refined(value, spec: QuadratureSpec, name: str) -> tuple[float, float]:
    """value(spec) on a finer spec, and its distance from value(spec) as the
    error estimate, which must meet spec.target.  The finer spec has
    `_finer` panels and 1.5 times the time panels, rounded up, so every
    count grows (time_panels = 1 gives 2)."""
    coarse = value(spec)
    fine = value(replace(spec, panels=_finer(spec.panels),
                         time_panels=spec.time_panels + (spec.time_panels + 1) // 2))
    err = abs(fine - coarse)
    if err > spec.target:
        raise QuadratureError(
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
    return _refined(lambda s: _terminal_integral(wctx, t_bar, x_src, m1_eq, m2_eq, s),
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


def _edges_toward(a: float, b: float, panels: int, x: float, lo: int = 0,
                  levels: int = FACE_LEVELS) -> np.ndarray:
    """Panel edges on [a, b] graded by `levels` toward x: inside (a, b) from
    both sides of x, each side with half the panels rounded up (so a 1.5x
    refinement of two or more panels refines both), else toward the end
    nearer x.  `lo` more levels grade toward a, for a face that ends on an
    axis."""
    if x <= a:
        return _graded_edges(a, b, panels, lo=max(lo, levels))
    if x >= b:
        return _graded_edges(a, b, panels, lo=lo, hi=levels)
    half = (panels + 1) // 2
    return np.concatenate([_graded_edges(a, x, half, lo=lo, hi=levels),
                           _graded_edges(x, b, half, lo=levels)[1:]])


def _q1_once(wctx: WedgeContext, dom: TwoBankDomains, x_src, t_bar: float,
             spec: QuadratureSpec) -> float:
    """Q1 on one spec: the terminal mass over D(1,1) and the strip D(1,0),
    plus the flux through bank 2's face against the shifted one-dimensional
    survival.  The face nodes span [m1_shift_lt, m1_shift_eq] and
    [m1_shift_eq, inf), each cut to the source's `_span` (a range it leaves
    empty is dropped) and graded by FACE_LEVELS toward x1' (split
    there if it holds x1', else toward its end nearer x1'): grading only the
    range holding x1' left 1.2e-12 at 6 panels of order 8, from the flux's
    tail across m1_shift_eq; without face levels, 9 of 90 off-benchmark calls
    (x2' in [0.7, 1.5], horizons 20-40) missed the 1e-6 target."""
    m1_eq, m2_eq = dom.ctx.m_terminal
    m1_shift_lt, m1_shift_eq = dom.m1_shift_lt, dom.m1_shift_eq

    # terminal: D(1,1) plus the curvilinear bank-2-defaults strip D(1,0)
    both = _terminal_integral(wctx, t_bar, x_src, m1_eq, m2_eq, spec)
    strip = _terminal_integral(
        wctx, t_bar, x_src, lambda x2: dom.theta_curve(0, x2), 0.0, spec, top2=m2_eq)

    # flux through bank 2's face against the shifted one-dimensional law,
    # whose remaining-life survival develops a step at the shifted terminal
    # level as tau -> 0: a panel edge there keeps the rule spectral.  At
    # small s the face flux is a Gaussian of width sqrt(s) about x1', so both
    # ranges are graded toward it
    (lo1, hi1), _ = _span(x_src, wctx.xi, t_bar)
    xs1 = float(x_src[0])
    start = max(m1_shift_lt, lo1)
    mid = min(max(m1_shift_eq, start), hi1)
    rules = [_gl_on_edges(_edges_toward(p, q, n, xs1), spec.order) for p, q, n in (
        (start, mid, _lower_face_panels(spec.panels)), (mid, hi1, spec.panels)) if p < q]
    if not rules:
        return both + strip
    x1_nodes, x1_w = (np.concatenate(r) for r in zip(*rules))

    def remaining_life(tau):
        # a remaining life at or below 1e-14 takes the law's step at m1_shift_eq
        law = survival_1d(x1_nodes, wctx.xi[0], m1_shift_lt, m1_shift_eq, np.maximum(tau, 1e-14))
        return np.where(tau > 1e-14, law, x1_nodes >= m1_shift_eq)

    flux_total = _flux_integral(wctx, t_bar, x_src, 2, x1_nodes, x1_w, spec, remaining_life)

    return both + strip + flux_total


def conservation_check(net: BankNetwork, x_src, horizon: float) -> dict:
    """Interior mass plus cumulative boundary outflow; must total 1.  The
    interior rule is graded toward both axes (by INTERIOR_LEVELS), and each
    face rule by GRADED_LEVELS toward the axis, where the flux behaves like
    x^(nu_1 - 1), and by CHECK_FACE_LEVELS toward the source's projection on
    the face, where a source near that face puts a flux peak of width about
    its distance; the time rules take CHECK_TIME_LEVELS at each end.  On
    the default QuadratureSpec `err` is `_refined`'s estimate, which must
    meet the spec's target; the parts are those of the finer rule.  A face
    rule graded only toward the axis totalled 1 - 1.8e-3 at rho = -0.612,
    source (4.75, 0.41) and calendar horizon 4.4; this one totals 1 within
    1.6e-10 over rho in [-0.9, 0.9], sources in [0.3, 5]^2 and calendar
    horizons 1-150 (`tests/test_wedge.py`)."""
    _, wctx, t_bar = _frame(net, horizon)
    span1, span2 = _span(x_src, wctx.xi, t_bar)
    xs1, xs2 = _source(x_src)
    parts = {}

    def total(s: QuadratureSpec) -> float:
        parts["interior"] = _terminal_integral(wctx, t_bar, x_src, 0.0, 0.0, s, INTERIOR_LEVELS)
        # a face's span above the axis holds the source's projection: never empty
        for face, (lo, hi), proj in ((2, span1, xs1), (1, span2, xs2)):
            edges = _edges_toward(max(0.0, lo), hi, s.panels, proj, lo=GRADED_LEVELS,
                                  levels=CHECK_FACE_LEVELS)
            nodes, weights = _gl_on_edges(edges, s.order)
            parts[f"flux_face{face}"] = _flux_integral(
                wctx, t_bar, x_src, face, nodes, weights, s, time_levels=CHECK_TIME_LEVELS)
        return parts["interior"] + parts["flux_face1"] + parts["flux_face2"]

    value, err = _refined(total, QuadratureSpec(), "conservation")
    return {**parts, "total": value, "err": err}
