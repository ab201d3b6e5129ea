"""Deterministic random drivers shared by all simulators.

Streams are counter-based (Philox) and keyed by (master_seed, stream_index),
so results never depend on scheduling or worker count: path k always draws
from stream k.  `PathNoise.rows` alone decides how many steps one draw holds.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_index), the
    two words of its Philox key: integers in [0, 2**64), so no two alias."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Stream for path/scenario `index`, independent of this one for index != stream_index."""
        return RngStream(self.master_seed, index)


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
# up to twice that resident, so the block size also bounds a run's peak RSS
NOISE_VALUES = 2**20


class PathNoise:
    """Per-path noise drawn from streams keyed by (master_seed, path_index).

    Path j's draws depend only on (master_seed, first_path + j), never on the
    total path count or scheduling, so chunked or parallel execution cannot
    change results.  Each generator draws in sequence, so `rows`, which owns
    the time blocking, splits a run into draws of NOISE_VALUES = 2**20 values
    without changing a value: 2,048 steps of 2 x 256 paths, so the per-path
    generator loop runs rarely, and 128 of 2 x 4,096, so a block stays small.
    """

    def __init__(self, stream: RngStream, n_paths: int, first_path: int = 0):
        self._gens = [
            stream.substream(first_path + j).generator() for j in range(n_paths)
        ]

    def normals(self, n_steps: int, dims: int) -> np.ndarray:
        """Standard normals with shape (n_steps, dims, n_paths)."""
        out = np.empty((len(self._gens), n_steps, dims))
        for j, g in enumerate(self._gens):
            g.standard_normal(out=out[j])
        return out.transpose(1, 2, 0)

    def rows(self, n_steps: int, dims: int) -> Iterator[np.ndarray]:
        """One (dims, n_paths) array of standard normals per step, via `normals`."""
        block = max(1, NOISE_VALUES // (dims * len(self._gens)))
        for k in range(0, n_steps, block):
            yield from self.normals(min(block, n_steps - k), dims)

    def generator(self, j: int) -> np.random.Generator:
        return self._gens[j]
