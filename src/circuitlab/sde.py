"""Pieces shared by the Goodwin, Keen and MMC Euler schemes.

All three models carry the same (s_w, lambda_w) employment block and differ
only in the employment growth rate; their noise is drawn per path in time
blocks, and their stored trajectories are thinned by a record stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator

import numpy as np

from .rng import PathNoise, RngStream

# steps of noise drawn per PathNoise.normals call
NOISE_BLOCK = 4096


def record_index(n_steps: int, stride: int) -> np.ndarray:
    """Steps whose state is stored: every stride-th one plus the last."""
    idx = np.arange(0, n_steps + 1, stride)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


def noise_rows(noise: PathNoise | None, n_steps: int, dims: int) -> Iterator:
    """Per-step standard normals of shape (dims, paths), drawn in blocks of
    NOISE_BLOCK steps; None for every step of a deterministic run."""
    if noise is None:
        yield from repeat(None, n_steps)
        return
    for k in range(0, n_steps, NOISE_BLOCK):
        yield from noise.normals(min(NOISE_BLOCK, n_steps - k), dims)


def jacobi(x):
    """Jacobi volatility sqrt(x(1-x)), vanishing on the unit-interval boundary."""
    return np.sqrt(np.clip(x * (1.0 - x), 0.0, None))


def employment_drift(s, lam, growth, params, regularized: bool):
    """Drift of (s_w, lambda_w) given the employment growth rate.

    ds_w/s_w = -(a - b lambda_w) and dlambda_w/lambda_w = growth; the
    regularized form adds the barriers omega/lambda_u and omega/s_f."""
    if regularized:
        return (-(params.a - params.b * lam - params.omega / (1.0 - lam)) * s,
                (growth - params.omega / (1.0 - s)) * lam)
    return -(params.a - params.b * lam) * s, growth * lam


@dataclass
class EulerPaths:
    """Recorded components, indexed (recorded step, path), and counters."""

    t: np.ndarray
    records: list[np.ndarray]      # s_w, lambda_w, then the extra components
    clamp_events: int
    total_steps: int
    s_range: tuple[float, float]
    lambda_range: tuple[float, float]
    cap_times: np.ndarray | None   # per path; nan when the cap was never hit


def euler_paths(
    drift: Callable,
    initial: tuple[float, ...],
    horizon: float,
    dt: float,
    paths: int,
    stream: RngStream | None,
    sigma: tuple[float, float],
    regularized: bool,
    clamp_eps: float,
    record_stride: int,
    cap: float | None = None,
) -> EulerPaths:
    """Euler paths of (s_w, lambda_w, *extra) with drift(*state) -> drifts.

    sigma loads Jacobi noise on (s_w, lambda_w); the extra components are
    deterministic given the pair.  Regularized or stochastic runs clamp the
    pair to [eps, 1-eps] after each step and count clamp events.  With a cap,
    a path whose first extra component exceeds it freezes at that step and
    the crossing time is reported.  Extremes of the pair are tracked over
    every step of the paths still running, whatever the record stride.
    """
    stochastic = sigma[0] > 0 or sigma[1] > 0
    clamp = regularized or stochastic
    if clamp and not (0 < initial[0] < 1 and 0 < initial[1] < 1):
        raise ValueError("initial state must be interior for regularized/stochastic runs")

    n_steps = int(round(horizon / dt))
    rec_idx = record_index(n_steps, record_stride)
    x = [np.full(paths, float(v)) for v in initial]
    records = [np.empty((len(rec_idx), paths)) for _ in initial]
    for rec, v in zip(records, x):
        rec[0] = v
    next_rec = 1

    noise = PathNoise(stream or RngStream(0), paths) if stochastic else None
    sqdt = math.sqrt(dt)
    lo, hi = clamp_eps, 1.0 - clamp_eps
    clamped = 0
    s_min = s_max = float(initial[0])
    l_min = l_max = float(initial[1])
    cap_times = None if cap is None else np.full(paths, np.nan)
    alive = np.ones(paths, dtype=bool)

    for k, z in enumerate(noise_rows(noise, n_steps, 2), start=1):
        nxt = [v + d * dt for v, d in zip(x, drift(*x))]
        if stochastic:
            nxt[0] += sigma[0] * jacobi(x[0]) * sqdt * z[0]
            nxt[1] += sigma[1] * jacobi(x[1]) * sqdt * z[1]
        if clamp:
            out = (nxt[0] < lo) | (nxt[0] > hi) | (nxt[1] < lo) | (nxt[1] > hi)
            if cap is not None:
                out &= alive
            clamped += int(out.sum())
            nxt[0] = np.clip(nxt[0], lo, hi)
            nxt[1] = np.clip(nxt[1], lo, hi)
        if cap is None:
            x = nxt
            s_live, l_live = x[0], x[1]
        else:
            # paths frozen at the cap keep their last state
            x = [np.where(alive, new, old) for new, old in zip(nxt, x)]
            blown = alive & (x[2] > cap)
            if np.any(blown):
                cap_times[blown] = k * dt
                alive &= ~blown
            s_live, l_live = x[0][alive], x[1][alive]
        if s_live.size:
            s_min = min(s_min, float(s_live.min()))
            s_max = max(s_max, float(s_live.max()))
            l_min = min(l_min, float(l_live.min()))
            l_max = max(l_max, float(l_live.max()))
        if next_rec < len(rec_idx) and k == rec_idx[next_rec]:
            for rec, v in zip(records, x):
                rec[next_rec] = v
            next_rec += 1

    return EulerPaths(t=rec_idx * dt, records=records, clamp_events=clamped,
                      total_steps=n_steps * paths, s_range=(s_min, s_max),
                      lambda_range=(l_min, l_max), cap_times=cap_times)
