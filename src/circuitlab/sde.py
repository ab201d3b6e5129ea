"""The Euler-Maruyama loop of the Goodwin, Keen and MMC models.

All three carry the same (s_w, lambda_w) employment block and differ in its
growth rate and in the components they add.  `EulerPaths.run` takes every
model's step: drift, noise, clamps, floors, a freezing cap and the record.
It holds the state as one float array of shape (components, paths), row 0
s_w and row 1 lambda_w, and advances the whole block with one ufunc per
operation; each path's arithmetic is the same as if it ran alone.  The
drift is a kernel on that block: it takes the stacked state and returns one
new array of the same shape, each model writing its rows into it, and
`employment_drift` the rows of the pair.  A diffusion takes the stacked
state and returns the noise loadings of the loaded rows, stacked the same
way.  Each step's normals come from `PathNoise.rows`, one contiguous
(dims, paths) array per step.  The loop's rules test with one reduction
whether they fire and pay for their masks only when one does.
The `EulerPaths` it returns is every circuit run's result: Goodwin returns
it as it is, Keen and MMC as subclasses that add views of their extra
components and what they derive from them.
It also holds `require_fields`, the one field check of every parameter
record: finite fields, and the sign of those that need one, by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable

import numpy as np

from .rng import PathNoise, RngStream, require_count

# clamped runs keep (s_w, lambda_w) in [CLAMP_EPS, 1 - CLAMP_EPS], off the
# boundary where the Jacobi volatility and the barrier drifts degenerate
CLAMP_EPS = 1e-9
# a horizon is a whole number n of steps when horizon / dt is within
# STEP_TOL * n of n: rounding of the division, not a part step
STEP_TOL = 1e-9


def step_count(horizon: float, dt: float, dt_name: str = "dt") -> int:
    """The number of steps of a run: horizon and dt must be finite and
    positive, and the horizon a whole number of steps, at least one."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"{dt_name} must be finite and positive, got {dt}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon} is shorter than half a step ({dt_name} = {dt})")
    if abs(horizon / dt - n_steps) > STEP_TOL * n_steps:
        raise ValueError(f"horizon {horizon} is not a whole number of steps ({dt_name} = {dt})")
    return n_steps


def require_fields(record, positive=(), non_negative=()) -> None:
    """ValueError naming the first field of the dataclass `record` that is
    not finite, then the first of `positive` not above zero and the first
    of `non_negative` below it: every parameter record's field check.  The
    finite check comes first, since a NaN fails no range check."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name in positive:
        if getattr(record, name) <= 0:
            raise ValueError(f"{name} must be positive, got {getattr(record, name)}")
    for name in non_negative:
        if getattr(record, name) < 0:
            raise ValueError(f"{name} must be non-negative, got {getattr(record, name)}")


def record_index(horizon: float, dt: float, stride: int) -> np.ndarray:
    """Steps whose state is stored: every stride-th one plus the last, of a
    run of step_count(horizon, dt) steps; the stride must be an integer of
    at least 1."""
    n_steps = step_count(horizon, dt)
    require_count("record_stride", stride, 1)
    idx = np.arange(0, n_steps + 1, stride)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


def jacobi(x):
    """Jacobi volatility sqrt(x(1-x)), vanishing on the unit-interval boundary."""
    return np.sqrt(np.maximum(x * (1.0 - x), 0.0))


def jacobi_noise(sigma_s: float, sigma_lambda: float) -> Callable | None:
    """EulerPaths.run diffusion loading sigma sqrt(x(1-x)) on (s_w, lambda_w),
    or None when both volatilities vanish."""
    if sigma_s <= 0 and sigma_lambda <= 0:
        return None
    sig = np.array([[sigma_s], [sigma_lambda]])
    return lambda x: sig * jacobi(x[:2])


def employment_drift(pair, growth, params, out):
    """Drift of the (s_w, lambda_w) block `pair`, shape (2, paths), given the
    employment growth rate: written into `out`, an array of that shape (a
    view of a model's drift block), and returned.

    ds_w/s_w = -(a - b lambda_w) and dlambda_w/lambda_w = growth; with
    params.omega > 0 the regularized form adds the barriers omega/lambda_u
    and omega/s_f, with (lambda_u, s_f) = 1 - (lambda_w, s_w).  The rows
    take the operations of -(a - b lambda_w - omega/lambda_u) s_w and
    (growth - omega/s_f) lambda_w in that order, so each equals its
    per-row formula bit for bit, the sign of a zero included."""
    np.subtract(params.a, params.b * pair[1], out=out[0])
    out[1] = growth
    if params.omega > 0:
        out -= params.omega / (1.0 - pair[::-1])
    np.negative(out[0], out=out[0])
    out *= pair
    return out


@dataclass(eq=False)
class EulerPaths:
    """A circuit run: recorded components, indexed (recorded step, path),
    and the loop's counters.  The extremes of (s_w, lambda_w) cover every
    step of the paths still running, whatever the record stride.  A model's
    result is this or a subclass that adds views of `records`; `run` builds
    either.  COMPONENTS names the leading components, for error messages."""

    COMPONENTS = ("s_w", "lambda_w")

    t: np.ndarray
    records: list[np.ndarray]      # s_w, lambda_w, then the extra components
    clamp_events: int
    floor_hits: int
    total_steps: int
    s_range: tuple[float, float]
    lambda_range: tuple[float, float]
    cap_times: np.ndarray | None   # per path; nan when the cap was never hit

    @property
    def s_w(self) -> np.ndarray:
        return self.records[0]

    @property
    def lambda_w(self) -> np.ndarray:
        return self.records[1]

    @classmethod
    def run(
        cls,
        drift: Callable,
        initial: tuple[float, ...],
        horizon: float,
        dt: float,
        paths: int,
        stream: RngStream | None,
        diffusion: Callable | None,
        regularized: bool,
        record_stride: int,
        loaded: tuple[int, ...] = (0, 1),
        floors: dict[int, float] | None = None,
        cap: float | None = None,
    ) -> EulerPaths:
        """Euler paths of (s_w, lambda_w, *extra), returned as an instance
        of cls.

        The state is one array x of shape (components, paths).  Each step is
        x + drift(x) dt, plus diffusion(x)[j] sqrt(dt) z_j on row loaded[j];
        the normals z are drawn in the order of `loaded`, and diffusion=None
        makes the run deterministic.  drift gets the stacked x and must
        return one array of x's shape, which the loop does not write; any
        other shape raises ValueError instead of broadcasting.  diffusion
        gets the stacked x and returns the loadings of the `loaded` rows,
        shape (len(loaded), paths).  Regularized or stochastic runs clamp the
        pair to [CLAMP_EPS, 1 - CLAMP_EPS] after each step and count the
        paths clamped.  A component i in `floors` is raised to floors[i]
        after each step, and each raised entry is a floor hit; an entry at
        its floor is set to it, so a -0.0 at a 0.0 floor comes out +0.0.
        With a cap, a path whose first extra component exceeds it freezes at
        that step and the crossing time is reported; its state at the
        crossing stays out of the extremes.  A running path whose pair turns
        NaN makes that component's range NaN.  `records` holds one (recorded
        step, path) view per component of a single (components, recorded
        steps, paths) array.  A non-finite initial component raises
        ValueError naming it.

        A step pays only for the rules that fire.  The clamp tests with one
        min and one max reduction, the cap with one max while no path is
        frozen, and the floors with one count of the entries at or below
        them; masks are built only when a test fires, and the extremes take
        no mask until a path freezes.  A NaN fails the clamp and cap tests,
        so it takes their masked path, and passes a floor unchanged either
        way.  The outputs are those of applying every rule to every path at
        every step, bit for bit.
        """
        rec_idx = record_index(horizon, dt, record_stride)
        require_count("paths", paths, 1)
        for i, value in enumerate(initial):
            if not math.isfinite(value):
                name = cls.COMPONENTS[i] if i < len(cls.COMPONENTS) else f"component {i}"
                raise ValueError(f"initial {name} must be finite, got {value}")
        stochastic = diffusion is not None
        clamp = regularized or stochastic
        if clamp and not (0 < initial[0] < 1 and 0 < initial[1] < 1):
            raise ValueError("initial state must be interior for regularized/stochastic runs")

        n_steps = int(rec_idx[-1])
        x = np.repeat(np.array(initial, dtype=float)[:, None], paths, axis=1)
        records = np.empty((len(x), len(rec_idx), paths))
        records[:, 0] = x
        rec_steps = rec_idx.tolist()
        next_rec = 1

        zs = (PathNoise(stream or RngStream(0), paths).rows(n_steps, len(loaded))
              if stochastic else repeat(None, n_steps))
        loaded_rows = _rows(loaded)
        floors = floors or {}
        floored_rows = _rows(floors)
        floor_values = np.array(list(floors.values()), dtype=float)[:, None]
        sqdt = math.sqrt(dt)
        lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
        clamped = 0
        floored = 0
        # per-path running extremes of (s_w, lambda_w)
        lows = x[:2].copy()
        highs = x[:2].copy()
        cap_times = None if cap is None else np.full(paths, np.nan)
        alive = np.ones(paths, dtype=bool)
        # the paths still running as a mask: the scalar True until a path
        # freezes at the cap, so that until then no step pays for masking
        running = True

        for k, z in enumerate(zs, start=1):
            d = drift(x)
            if getattr(d, "shape", None) != x.shape:
                raise ValueError(f"drift must return one array of shape {x.shape}, the "
                                 f"stacked state's; got {getattr(d, 'shape', type(d).__name__)}")
            nxt = np.multiply(d, dt)
            np.add(x, nxt, out=nxt)
            if stochastic:
                # a new array: what the diffusion returned is never written
                load = np.multiply(diffusion(x), sqdt)
                load *= z
                nxt[loaded_rows] += load
            if clamp:
                pair = nxt[:2]
                if not (pair.min() >= lo and pair.max() <= hi):
                    out = (pair < lo) | (pair > hi)
                    clamped += np.count_nonzero((out[0] | out[1]) & running)
                    np.maximum(pair, lo, out=pair)
                    np.minimum(pair, hi, out=pair)
            if floors:
                held = nxt[floored_rows]
                # an entry above its floor, or NaN, passes np.maximum unchanged
                if np.count_nonzero(held <= floor_values):
                    floored += np.count_nonzero((held < floor_values) & running)
                    np.maximum(held, floor_values, out=held)
                    nxt[floored_rows] = held    # a no-op when held is a view
            # paths frozen at the cap keep their last state
            x = nxt if running is True else np.where(alive, nxt, x)
            if cap is not None and not (running is True and x[2].max() <= cap):
                blown = alive & (x[2] > cap)
                if blown.any():
                    cap_times[blown] = k * dt
                    alive &= ~blown
                    running = alive
            if running is True:
                np.minimum(lows, x[:2], out=lows)
                np.maximum(highs, x[:2], out=highs)
            else:
                np.minimum(lows, x[:2], out=lows, where=running)
                np.maximum(highs, x[:2], out=highs, where=running)
            if next_rec < len(rec_steps) and k == rec_steps[next_rec]:
                records[:, next_rec] = x
                next_rec += 1

        s_range, lambda_range = ((float(low.min()), float(high.max()))
                                 for low, high in zip(lows, highs))
        return cls(t=rec_idx * dt, records=list(records), clamp_events=int(clamped),
                   floor_hits=int(floored), total_steps=n_steps * paths,
                   s_range=s_range, lambda_range=lambda_range, cap_times=cap_times)


def _rows(indices) -> slice | np.ndarray:
    """Index of the given rows of the state: a slice, so that views write in
    place, when they are a contiguous ascending run; else an index array."""
    idx = np.array(list(indices), dtype=int)
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx
