"""Deterministic random drivers shared by all simulators.

Streams are counter-based (Philox) and keyed by (master_seed, stream_index),
so results never depend on scheduling or worker count: path k always draws
from stream k.  `PathNoise.rows` alone decides how many steps one draw holds.

`PathNoise` lays its normals out step-major, (n_steps, dims, n_paths) in C
order, the layout the Euler loops read one step at a time.  Each path draws
its run, a slab of steps at a time, into a row of a small tile buffer,
which is copied into the block's columns.  When a path's draw is large and
the process may use two CPUs, one worker thread fills half the tiles; each
generator is used by one thread and writes only its own columns, so the
values never depend on the split.  The worker starts on first use, never at
import.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "RngStream",
    "CorrelationMatrix",
    "JumpSpec",
    "PathNoise",
]


def require_count(name: str, value, least: int) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer of at
    least `least`.  A bool is refused: it is an Integral, but never a count."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_index), the
    two words of its Philox key: integers (not bools) in [0, 2**64), so none alias."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                    and 0 <= value < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def substream(self, index: int) -> "RngStream":
        """Stream for path/scenario `index`, independent of this one for index != stream_index."""
        return RngStream(self.master_seed, index)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A Philox key handed over as the generator's seed sequence.  Philox
    takes `generate_state(2, np.uint64)` as its key, so the draws equal
    `Philox(key=words)`'s, which would first build a `SeedSequence` from OS
    entropy and then discard it: that costs half of each generator build."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


class CorrelationError(ValueError):
    """Correlation matrix is not symmetric PSD with unit diagonal."""


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric PSD matrix of pairwise Brownian correlations with unit
    diagonal.  It holds a read-only copy of the matrix and its factor, so
    the two cannot drift apart."""

    rho: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=float, ndmin=2)
        if rho.shape[0] != rho.shape[1]:
            raise CorrelationError(f"correlation matrix must be square, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise CorrelationError(f"correlation matrix must be finite, got {rho.tolist()}")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise CorrelationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise CorrelationError("correlation matrix must have unit diagonal")
        chol = _psd_cholesky(rho)
        rho.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_chol", chol)

    def __reduce__(self):
        # copies and unpickled instances rebuild through the checks, read-only
        return type(self), (self.rho,)

    @classmethod
    def from_scalar(cls, rho: float, n: int = 2) -> "CorrelationMatrix":
        m = np.full((n, n), float(rho))
        np.fill_diagonal(m, 1.0)
        return cls(m)

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    @property
    def cholesky(self) -> np.ndarray:
        return self._chol


# a Cholesky pivot within this of zero is a semi-definite direction (rounding
# of a singular correlation matrix); below -PIVOT_TOL the matrix is rejected
PIVOT_TOL = 1e-10


def _psd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor allowing zero pivots; reports the offending pivot."""
    n = a.shape[0]
    l = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(l[j, :j], l[j, :j])
        if d < -PIVOT_TOL:
            raise CorrelationError(
                f"correlation matrix is not positive semi-definite: pivot {j} = {d:.3e}"
            )
        if d <= PIVOT_TOL:
            # semi-definite direction: column contributes nothing
            l[j, j] = 0.0
            continue
        l[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            l[i, j] = (a[i, j] - np.dot(l[i, :j], l[j, :j])) / l[j, j]
    return l


@dataclass(frozen=True, eq=False)
class JumpSpec:
    """Marshall-Olkin common-shock jump specification.

    subset_intensities maps frozen subsets of bank indices to Poisson
    intensities; each bank's arrival process is the superposition of the
    subsets containing it.  Amplitudes are negative-exponential with
    per-bank decay theta[i] > 0, so the compensator is -1/(theta[i]+1).
    It holds a read-only copy of theta and a read-only view of the
    positive intensities.
    """

    n_banks: int
    subset_intensities: Mapping[frozenset[int], float]
    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=float)
        if theta.shape != (self.n_banks,):
            raise ValueError(f"theta must have shape ({self.n_banks},)")
        if not np.all(np.isfinite(theta) & (theta > 0)):
            raise ValueError(f"jump decay theta must be positive and finite for every bank, "
                             f"got {theta.tolist()}")
        clean: dict[frozenset[int], float] = {}
        for subset, lam in self.subset_intensities.items():
            s = frozenset(subset)
            if not s or any(i < 0 or i >= self.n_banks for i in s):
                raise ValueError(f"subset {set(subset)} out of range for {self.n_banks} banks")
            # an infinite intensity would draw zero waiting times forever,
            # and a NaN one fails every comparison and would be dropped
            if not (math.isfinite(lam) and lam >= 0):
                raise ValueError(f"intensity for subset {set(subset)} must be finite and "
                                 f"non-negative, got {lam}")
            if lam > 0:
                clean[s] = float(lam)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "subset_intensities", MappingProxyType(clean))

    def __reduce__(self):
        # copies and unpickled instances rebuild through the checks, read-only
        return type(self), (self.n_banks, dict(self.subset_intensities), self.theta)

    @property
    def compensators(self) -> np.ndarray:
        """kappa[i] = E[exp(J_i) - 1] = -1/(theta[i] + 1)."""
        return -1.0 / (self.theta + 1.0)

    def bank_intensities(self) -> np.ndarray:
        """Per-bank arrival intensity: sum of intensities of subsets containing the bank."""
        lam = np.zeros(self.n_banks)
        for subset, rate in self.subset_intensities.items():
            for i in subset:
                lam[i] += rate
        return lam

    @classmethod
    def systemic_idiosyncratic(
        cls, lam_all: float, lam_single: np.ndarray, theta: np.ndarray
    ) -> "JumpSpec":
        """Common shock hitting all banks plus one singleton subset per bank."""
        lam_single = np.asarray(lam_single, dtype=float)
        n = lam_single.shape[0]
        subsets: dict[frozenset[int], float] = {frozenset(range(n)): float(lam_all)}
        for i in range(n):
            subsets[frozenset([i])] = float(lam_single[i])
        return cls(n, subsets, theta)


# values of noise in one `PathNoise.rows` draw: 8.4 MB of float64.  Freeing
# a block raises glibc's mmap threshold to its size, and the heap then keeps
# up to twice that resident, so the block size, with the tile buffers below
# (at most TILE_VALUES each, one per filling thread), bounds a run's peak RSS
NOISE_VALUES = 2**20
# paths per tile buffer.  The calling thread allocates every tile buffer,
# the worker's too: buffers the worker allocated come from a second glibc
# arena, and raised the benchmark's `monte_carlo` peak RSS from 70.2 to
# 72.3 MB
TILE_PATHS = 32
# values per tile buffer, 1 MB: TILE_PATHS paths of 2 x 2,048 steps.  A
# longer run fills in slabs of steps, so a draw of few paths does not hold
# its noise twice, in its block and in a tile as large
TILE_VALUES = 2**17
# values per path (n_steps * dims) from which a draw of more than one tile
# splits its tiles with the worker thread.  Each standard_normal call
# releases the GIL only for its fill of this many values, so below the
# crossover the two threads mostly wait on each other for the GIL; handing
# a draw to the worker costs about 40 us besides.  Measured on 2 CPUs (numpy
# 2.4, Python 3.11), two threads against one at 256 / 1,024 / 4,096 paths:
# 1.64 / 1.57 / 1.54x the time at 256 values, 1.16 / 1.07 / 1.02x at 384,
# 0.72 / 0.88 / 0.88x at 448, 0.66 / 0.82 / 0.63x at 512, and about 0.55x
# at 4,096 values on 256 paths
THREAD_VALUES = 512


class PathNoise:
    """Per-path noise drawn from streams keyed by (master_seed, path_index).

    Path j's draws depend only on (master_seed, first_path + j), never on the
    total path count or scheduling, so chunked or parallel execution cannot
    change results.  Each generator draws in sequence, so `rows`, which owns
    the time blocking, splits a run into draws of NOISE_VALUES = 2**20 values
    (rounded up to whole steps) without changing a value: 2,048 steps of 2 x
    256 paths, so the per-path generator loop runs rarely, and 128 of 2 x
    4,096, so a block stays small.

    A draw is a C-contiguous (n_steps, dims, n_paths) block, so each step
    `rows` yields is a contiguous (dims, n_paths) array.  Paths fill it
    TILE_PATHS at a time: each draws its run into its row of a tile buffer of
    at most TILE_VALUES values, a slab of steps at a time, and each slab is
    copied into its paths' columns.  A draw of more than one tile, with
    n_steps * dims >= THREAD_VALUES, in a process that may use two CPUs,
    gives the later half of its tiles to one worker thread.
    A draw's block and its one or two tile buffers bound the noise's memory.
    """

    def __init__(self, stream: RngStream, n_paths: int, first_path: int = 0):
        require_count("n_paths", n_paths, 1)
        self._gens = [
            stream.substream(first_path + j).generator() for j in range(n_paths)
        ]

    def normals(self, n_steps: int, dims: int) -> np.ndarray:
        """Standard normals with shape (n_steps, dims, n_paths), C-contiguous."""
        _require_shape(n_steps, dims)
        n = len(self._gens)
        out = np.empty((n_steps, dims, n))
        paths = min(TILE_PATHS, n)
        tile = (paths, max(1, min(n_steps, TILE_VALUES // (paths * dims))), dims)
        if n > TILE_PATHS and n_steps * dims >= THREAD_VALUES and _usable_cpus() >= 2:
            # the caller takes the larger half of the tiles
            cut = -(-n // (2 * TILE_PATHS)) * TILE_PATHS
            bufs = np.empty((2, *tile))
            rest = _worker().submit(_fill, self._gens, cut, n, out, bufs[1])
            _fill(self._gens, 0, cut, out, bufs[0])
            rest.result()
        else:
            _fill(self._gens, 0, n, out, np.empty(tile))
        return out

    def rows(self, n_steps: int, dims: int) -> Iterator[np.ndarray]:
        """One contiguous (dims, n_paths) array of standard normals per step,
        via `normals`, in blocks of NOISE_VALUES // n_paths values per path
        rounded up to whole steps: at 2,048 paths every dims reaches
        THREAD_VALUES."""
        _require_shape(n_steps, dims)
        block = max(1, -(-(NOISE_VALUES // len(self._gens)) // dims))
        for k in range(0, n_steps, block):
            yield from self.normals(min(block, n_steps - k), dims)

    def generator(self, j: int) -> np.random.Generator:
        return self._gens[j]


def _require_shape(n_steps: int, dims: int) -> None:
    require_count("n_steps", n_steps, 0)
    require_count("dims", dims, 1)


def _fill(gens: list, lo: int, hi: int, out: np.ndarray, buf: np.ndarray) -> None:
    """Draw paths lo..hi-1 of `gens` into their columns of `out` through
    `buf`, a tile of up to len(buf) paths and buf.shape[1] steps at a time.
    Each generator draws its slabs in sequence, so they hold the values of
    one draw of its whole run."""
    n_steps, slab = len(out), buf.shape[1]
    for a in range(lo, hi, len(buf)):
        b = min(a + len(buf), hi)
        for s in range(0, n_steps, slab):
            e = min(s + slab, n_steps)
            tile = buf[:b - a, :e - s]
            for g, row in zip(gens[a:b], tile):
                g.standard_normal(out=row)
            out[s:e, :, a:b] = tile.transpose(1, 2, 0)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


_worker_lock = threading.Lock()
_worker_pool = None     # (pid, executor): a forked child starts its own


def _worker():
    """The one worker thread that fills tiles, started on first use."""
    global _worker_pool
    with _worker_lock:
        if _worker_pool is None or _worker_pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _worker_pool = (os.getpid(),
                            ThreadPoolExecutor(1, thread_name_prefix="path-noise"))
        return _worker_pool[1]
