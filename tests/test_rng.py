import copy
import math
import multiprocessing
import pickle
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitlab import dividend, goodwin, network, rng, sde, wedge
from circuitlab.rng import (
    CorrelationError,
    CorrelationMatrix,
    JumpSpec,
    PathNoise,
    RngStream,
)
from circuitlab.network import BankNetwork, _draw_jump_events, simulate_paths


def test_stream_reproducible():
    a = RngStream(1234, 7).generator().standard_normal(100)
    b = RngStream(1234, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_streams_differ_by_index():
    a = RngStream(1234, 0).generator().standard_normal(100)
    b = RngStream(1234, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, index, name", [
    (-1, 0, "master_seed"),             # was masked to 2**64 - 1
    (2**64, 0, "master_seed"),          # was masked to 0
    (3, -1, "stream_index"),
    (3, 2**64, "stream_index"),
    (1.5, 0, "master_seed"),            # was an unnamed TypeError when drawn
    (3, 2.0, "stream_index"),
])
def test_stream_rejects_a_key_outside_64_bits_by_name(seed, index, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, 2\*\*64\)"):
        RngStream(seed, index)


def test_stream_takes_every_64_bit_key():
    top = 2**64 - 1
    a = RngStream(top, top).generator().standard_normal(4)
    b = RngStream(np.uint64(top), np.uint64(top)).substream(top).generator().standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RngStream(0, top).generator().standard_normal(4))


# a key drawn once from os.urandom, beside the two ends of the key space
@pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 2**64 - 1),
                                 (0x8F0C6A3E91D2B547, 0x2B7E151628AED2A6)],
                         ids=["zero", "top", "random"])
def test_generator_is_philox_keyed_by_seed_and_index(key):
    # the stream builds Philox from the key through a seed sequence; a numpy
    # release that stopped taking that sequence's state as the key would
    # change every seeded result
    reference = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    expected = reference.standard_normal(96).tobytes()
    gen = RngStream(*key).generator()
    copied = pickle.loads(pickle.dumps(gen))
    head = gen.standard_normal(32).tobytes()
    resumed = pickle.loads(pickle.dumps(gen))
    assert head + gen.standard_normal(64).tobytes() == expected
    assert copied.standard_normal(96).tobytes() == expected
    assert head + resumed.standard_normal(64).tobytes() == expected


@pytest.mark.parametrize("build, message", [
    (lambda: PathNoise(RngStream(0), 0), r"^n_paths must be a positive integer, got 0$"),
    (lambda: PathNoise(RngStream(0), 2.5), r"^n_paths must be a positive integer, got 2\.5$"),
    (lambda: PathNoise(RngStream(0), -3), r"^n_paths must be a positive integer, got -3$"),
    (lambda: list(PathNoise(RngStream(0), 2).rows(3, 0)),
     r"^dims must be a positive integer, got 0$"),
    (lambda: PathNoise(RngStream(0), 2).normals(3, 1.5),
     r"^dims must be a positive integer, got 1\.5$"),
    (lambda: PathNoise(RngStream(0), 2).normals(-3, 2),
     r"^n_steps must be a non-negative integer, got -3$"),
    (lambda: list(PathNoise(RngStream(0), 2).rows(-1, 2)),
     r"^n_steps must be a non-negative integer, got -1$"),
    (lambda: list(PathNoise(RngStream(0), 2).rows(2.5, 2)),
     r"^n_steps must be a non-negative integer, got 2\.5$"),
], ids=["zero-paths", "fractional-paths", "negative-paths", "zero-dims", "fractional-dims",
        "negative-steps", "negative-row-steps", "fractional-row-steps"])
def test_path_noise_rejects_a_degenerate_shape_by_name(build, message):
    # zero paths or dims divided by zero in rows, 2.5 paths was an unnamed
    # TypeError from range, and -3 steps numpy's "negative dimensions"
    with pytest.raises(ValueError, match=message):
        build()


# each count of the package, as (entry point taking the count, its name);
# each goes through rng.require_count
COUNTS = {
    "record_index": (lambda v: sde.record_index(1.0, 0.1, v), "record_stride"),
    "EulerPaths.run": (lambda v: goodwin.simulate(goodwin.GoodwinState(0.5, 0.5),
                                                  goodwin.FIG3_PARAMS, 1.0, 0.1, paths=v),
                       "paths"),
    "simulate_paths": (lambda v: simulate_paths(network.fig15_network(), 1.0, 0.1, v), "paths"),
    "two_bank_survival_grid": (lambda v: network.two_bank_survival_grid(
        network.fig15_network(), 12.5, 0.5, v), "paths"),
    "PathNoise": (lambda v: PathNoise(RngStream(0), v), "n_paths"),
    "normals-steps": (lambda v: PathNoise(RngStream(0), 2).normals(v, 1), "n_steps"),
    "normals-dims": (lambda v: PathNoise(RngStream(0), 2).normals(1, v), "dims"),
    "solve_variational": (lambda v: dividend.solve_variational(
        dividend.FIG13_PARAMS, 0.01, 5.0, n_grid=v), "n_grid"),
    "QuadratureSpec": (lambda v: wedge.QuadratureSpec(panels=v), "panels"),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("entry", COUNTS)
def test_counts_reject_a_bool_by_name(entry, value):
    # a bool is an Integral: True once passed as one path and then died in
    # numpy with an unnamed TypeError, and as one quadrature panel it ran
    call, name = COUNTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be .*integer.*, got {value}$"):
        call(value)


def _fills_by_thread(monkeypatch):
    """Patch rng._fill to record the thread of each call; returns the set."""
    threads = set()
    fill = rng._fill

    def traced(*args):
        threads.add(threading.get_ident())
        fill(*args)

    monkeypatch.setattr(rng, "_fill", traced)
    return threads


@pytest.mark.parametrize("n_paths", [1, rng.TILE_PATHS - 1, rng.TILE_PATHS + 1,
                                     3 * rng.TILE_PATHS + 5])
def test_normals_are_step_major_whichever_thread_fills_them(n_paths, monkeypatch):
    # from two tiles on, a draw above the crossover shares its tiles with
    # the worker; with one CPU, or one tile, the caller fills every tile.
    # Tile buffers of 3 steps fill each path's run in slabs of 3, 3 and 1
    n_steps, dims = 7, 3
    monkeypatch.setattr(rng, "THREAD_VALUES", n_steps * dims)
    monkeypatch.setattr(rng, "TILE_VALUES", min(n_paths, rng.TILE_PATHS) * dims * 3)
    draws = {}
    for cpus in (1, 2):
        monkeypatch.setattr(rng, "_usable_cpus", lambda cpus=cpus: cpus)
        threads = _fills_by_thread(monkeypatch)
        noise = PathNoise(RngStream(6), n_paths, first_path=2)
        block = noise.normals(n_steps, dims)
        rows = list(noise.rows(n_steps, dims))
        assert block.shape == (n_steps, dims, n_paths) and block.flags.c_contiguous
        assert all(r.shape == (dims, n_paths) and r.flags.c_contiguous for r in rows)
        assert len(threads) == (2 if cpus == 2 and n_paths > rng.TILE_PATHS else 1)
        later = np.stack(rows)
        for j in range(n_paths):
            g = RngStream(6, 2 + j).generator()
            assert block[:, :, j].tobytes() == g.standard_normal((n_steps, dims)).tobytes()
            assert later[:, :, j].tobytes() == g.standard_normal((n_steps, dims)).tobytes()
        draws[cpus] = block.tobytes() + later.tobytes()
    assert draws[1] == draws[2]


def test_the_worker_fills_only_large_draws_with_two_cpus(monkeypatch):
    # this process's own affinity: one CPU under `taskset -c 0`
    threads = _fills_by_thread(monkeypatch)
    width = 2 * rng.TILE_PATHS
    PathNoise(RngStream(7), width).normals(rng.THREAD_VALUES // 2 - 1, 2)
    assert len(threads) == 1
    PathNoise(RngStream(7), width).normals(rng.THREAD_VALUES // 2, 2)
    assert len(threads) == (2 if rng._usable_cpus() >= 2 else 1)


def _threaded_draw() -> bytes:
    return PathNoise(RngStream(5), 2 * rng.TILE_PATHS + 1).normals(4, 2).tobytes()


def test_a_forked_child_starts_its_own_worker(monkeypatch):
    # a forked child has no copy of the parent's worker thread: a fill
    # handed to the parent's executor would never run
    monkeypatch.setattr(rng, "THREAD_VALUES", 1)
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    parent = _threaded_draw()
    assert rng._worker_pool is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_threaded_draw).get(timeout=60) == parent


@pytest.mark.parametrize("n_paths", [1, rng.TILE_PATHS])
def test_a_draw_of_one_tile_holds_its_noise_once(n_paths):
    # a block of four tile buffers' values: the tile fills it in slabs of
    # steps, so the draw allocates the block and one buffer, not the block
    # twice
    dims = 2
    n_steps = 4 * rng.TILE_VALUES // (n_paths * dims)
    noise = PathNoise(RngStream(12), n_paths)
    tracemalloc.start()
    try:
        block = noise.normals(n_steps, dims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + 8 * rng.TILE_VALUES + 2**16
    for j in range(n_paths):
        whole = RngStream(12, j).generator().standard_normal((n_steps, dims))
        assert block[:, :, j].tobytes() == whole.tobytes()


def test_path_noise_independent_of_total_count():
    # path j's draws must not change when more paths are added
    small = PathNoise(RngStream(9), n_paths=3).normals(50, 2)
    big = PathNoise(RngStream(9), n_paths=8).normals(50, 2)
    assert np.array_equal(small, big[:, :, :3])


def test_path_noise_blocks_are_each_paths_own_draws():
    # each block of path j is the next (n_steps, dims) draw of its generator
    noise = PathNoise(RngStream(9), n_paths=3)
    blocks = [noise.normals(7, 2), noise.normals(5, 3)]
    for j in range(3):
        g = RngStream(9).substream(j).generator()
        for block in blocks:
            assert block[:, :, j].tobytes() == g.standard_normal(block.shape[:2]).tobytes()


@settings(deadline=None, max_examples=60)
@given(budget=st.integers(1, 64), n_steps=st.integers(0, 40), dims=st.integers(1, 4),
       n_paths=st.integers(1, 5))
def test_rows_are_the_steps_of_one_normals_draw(budget, n_steps, dims, n_paths):
    # rows draws blocks of max(1, budget // (dims * n_paths)) steps, and
    # their steps are those of a single draw of the whole run, bit for bit
    noise = PathNoise(RngStream(4), n_paths)
    draw = noise.normals
    blocks = []

    def traced(steps, d):
        blocks.append(steps)
        return draw(steps, d)

    noise.normals = traced
    with mock.patch.object(rng, "NOISE_VALUES", budget):
        rows = list(noise.rows(n_steps, dims))
    step = max(1, budget // (dims * n_paths))
    assert blocks == [min(step, n_steps - k) for k in range(0, n_steps, step)]
    whole = PathNoise(RngStream(4), n_paths).normals(n_steps, dims)
    assert len(rows) == n_steps
    if rows:
        assert np.stack(rows).tobytes() == whole.tobytes()


def _jump_network_run():
    net = replace(network.fig15_network(rho=0.3, external_assets=(60.0, 90.0)),
                  jumps=JumpSpec.systemic_idiosyncratic(0.4, np.array([0.3, 0.3]),
                                                        np.array([1.5, 1.5])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "PATH_CHUNK", 16)
        rec = simulate_paths(net, 2.0, 0.02, 37, RngStream(8), dynamics="jump-diffusion")
    assert rec.interior_default.any()
    return rec


def _goodwin_run():
    return goodwin.simulate(goodwin.GoodwinState(0.75, 0.8), goodwin.FIG3_PARAMS,
                            horizon=1.0, dt=0.01, paths=5, stream=RngStream(3))


# budgets of 3 steps per draw of a 2 x 16 network chunk, 7 of 2 x 5 Goodwin paths
@pytest.mark.parametrize("run, budget", [(_jump_network_run, 96), (_goodwin_run, 70)])
def test_simulators_do_not_depend_on_the_noise_budget(run, budget, monkeypatch):
    default = pickle.dumps(run())
    monkeypatch.setattr(rng, "NOISE_VALUES", budget)
    assert pickle.dumps(run()) == default


SIGMA = np.array([0.3, 0.2])


def _default_free(rho, jumps=None):
    """Two banks that never default: with recoveries 0 and no mutual
    liabilities both interior boundaries sit at zero."""
    return BankNetwork(external_assets=np.array([100.0, 80.0]),
                       external_liabilities=np.array([5.0, 4.0]),
                       mutual=np.zeros((2, 2)), recoveries=np.zeros(2), sigma=SIGMA,
                       corr=CorrelationMatrix.from_scalar(rho, 2), jumps=jumps)


def _log_returns(net, seed, horizon, dt, paths=20_000, dynamics="lognormal"):
    """ln(A_T / A_0) of simulate_paths, deflated by e^{mu T}: (paths, 2)."""
    rec = simulate_paths(net, horizon, dt, paths, RngStream(seed), dynamics=dynamics)
    assert not rec.interior_default.any()
    return np.log(rec.terminal_assets / net.external_assets)


def test_gaussian_identity_variance():
    # ln(A_T / A_0) = -sigma^2 T / 2 + sigma W_T: variance sigma^2 T, and the
    # sample variance of n normals has relative standard error sqrt(2 / (n-1))
    horizon, n = 1.0, 20_000
    r = _log_returns(_default_free(0.0), 42, horizon, dt=0.25, paths=n)
    ratio = r.var(axis=0, ddof=1) / (SIGMA ** 2 * horizon)
    assert np.all(np.abs(ratio - 1.0) < 3.0 * np.sqrt(2.0 / (n - 1)))


def test_gaussian_zero_cross_correlation():
    n = 20_000
    r = _log_returns(_default_free(0.0), 43, 1.0, dt=0.25, paths=n)
    assert abs(np.corrcoef(r.T)[0, 1]) < 3.0 / np.sqrt(n)


def test_gaussian_covariance_rho_half():
    # cov = rho sigma_1 sigma_2 T; the sample covariance of bivariate normals
    # has variance (var_1 var_2 + cov^2) / n
    rho, horizon, n = 0.5, 0.5, 20_000
    r = _log_returns(_default_free(rho), 44, horizon, dt=0.125, paths=n)
    var = SIGMA ** 2 * horizon
    cov = rho * SIGMA[0] * SIGMA[1] * horizon
    se = np.sqrt((var[0] * var[1] + cov ** 2) / n)
    assert abs(np.cov(r.T)[0, 1] - cov) < 3 * se


def test_non_psd_reports_pivot():
    m = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(CorrelationError, match="pivot 2"):
        CorrelationMatrix(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_correlation_is_rejected(bad):
    # it raised "must be symmetric" for NaN and a pivot of -inf for inf
    with pytest.raises(CorrelationError, match=r"^correlation matrix must be finite, got"):
        CorrelationMatrix.from_scalar(bad)


def test_degenerate_psd_allowed():
    # a perfectly correlated pair is PSD with a zero pivot: both banks are
    # driven by one Brownian path W_T = (ln(A_T / A_0) + sigma^2 T / 2) / sigma
    horizon = 1.0
    r = _log_returns(_default_free(1.0), 5, horizon, dt=0.1, paths=1000)
    w = (r + 0.5 * SIGMA ** 2 * horizon) / SIGMA
    np.testing.assert_allclose(w[:, 0], w[:, 1], rtol=0.0, atol=1e-12)


def test_jump_spec_validation():
    with pytest.raises(ValueError, match="negative"):
        JumpSpec(2, {frozenset([0]): -0.1}, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="theta"):
        JumpSpec(2, {frozenset([0]): 0.1}, np.array([1.0, -1.0]))


@pytest.mark.parametrize("intensity, theta, message", [
    (math.inf, [1.0, 1.0], r"intensity for subset \{0\} must be finite and non-negative, got inf"),
    (math.nan, [1.0, 1.0], r"intensity for subset \{0\} must be finite and non-negative, got nan"),
    (0.1, [1.0, math.nan], r"jump decay theta must be positive and finite for every bank"),
    (0.1, [math.inf, 1.0], r"jump decay theta must be positive and finite for every bank"),
], ids=["inf-intensity", "nan-intensity", "nan-theta", "inf-theta"])
def test_jump_spec_rejects_a_non_finite_value_by_name(intensity, theta, message):
    # built only: an infinite intensity would draw zero waiting times forever
    with pytest.raises(ValueError, match=message):
        JumpSpec(2, {frozenset([0]): intensity}, np.array(theta))


def _copies(spec):
    return copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))


def test_correlation_matrix_keeps_a_read_only_copy():
    # it once kept the caller's array: an edit after construction moved rho,
    # which the wedge reads, away from the factor the Monte Carlo draws with
    m = np.array([[1.0, 0.3], [0.3, 1.0]])
    corr = CorrelationMatrix(m)
    m[0, 1] = m[1, 0] = 0.9
    assert corr.rho[0, 1] == 0.3 and corr.cholesky[1, 0] == 0.3
    for arr in (corr.rho, corr.cholesky):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 1] = 0.9
    with pytest.raises(FrozenInstanceError):
        corr.rho = m
    for other in _copies(corr):
        assert not (other.rho.flags.writeable or other.cholesky.flags.writeable)
        assert np.array_equal(other.rho, corr.rho)
        assert np.array_equal(other.cholesky, corr.cholesky)


def test_jump_spec_is_frozen_with_read_only_data():
    # an assigned theta of [-1, 2] once passed unchecked, and the
    # compensators read -inf
    theta = np.array([1.5, 2.0])
    intensities = {frozenset([0, 1]): 0.4, frozenset([0]): 0.3, frozenset([1]): 0.0}
    spec = JumpSpec(2, intensities, theta)
    theta[0] = -1.0
    intensities[frozenset([1])] = 0.5
    assert spec.theta[0] == 1.5
    assert dict(spec.subset_intensities) == {frozenset([0, 1]): 0.4, frozenset([0]): 0.3}
    with pytest.raises(FrozenInstanceError):
        spec.theta = [-1.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        spec.theta[0] = -1.0
    with pytest.raises(TypeError):
        spec.subset_intensities[frozenset([1])] = 0.5
    assert np.array_equal(spec.compensators, -1.0 / (np.array([1.5, 2.0]) + 1.0))
    for other in _copies(spec):
        assert not other.theta.flags.writeable and np.array_equal(other.theta, spec.theta)
        assert dict(other.subset_intensities) == dict(spec.subset_intensities)
        with pytest.raises(TypeError):
            other.subset_intensities[frozenset([1])] = 0.5


def _jump_events(seed, spec, horizon, dt, width):
    """The network simulator's jump draws, as (rows, banks, amps, steps)."""
    events = _draw_jump_events(PathNoise(RngStream(seed), width), spec, horizon, dt, width)
    steps = sorted(events)
    cols = [np.concatenate([events[k][c] for k in steps]) for c in range(3)]
    step_of = np.repeat(steps, [events[k][0].size for k in steps])
    return (*cols, step_of)


def _counts(spec, rows, banks, width):
    """Arrivals per (path, bank) over the whole horizon."""
    out = np.zeros((width, spec.n_banks), dtype=np.int64)
    np.add.at(out, (rows, banks), 1)
    return out


def test_compensator_matches_monte_carlo():
    # kappa = E[e^J - 1] = -1/(theta+1) for negative-exponential J
    theta = 2.5
    spec = JumpSpec(1, {frozenset([0]): 1.0}, np.array([theta]))
    _, _, amps, _ = _jump_events(7, spec, horizon=100.0, dt=1.0, width=1000)
    assert amps.size > 90_000 and np.all(amps <= 0.0)
    draws = np.exp(amps) - 1.0
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - spec.compensators[0]) < 3 * se
    assert spec.compensators[0] == pytest.approx(-1.0 / 3.5)


def test_common_shock_always_joint():
    # every common-shock arrival hits both banks at the same step and path
    spec = JumpSpec(2, {frozenset([0, 1]): 0.1}, np.array([1.0, 1.0]))
    rows, banks, _, steps = _jump_events(11, spec, horizon=10.0, dt=0.5, width=2000)
    hits = [sorted(zip(rows[banks == b], steps[banks == b])) for b in (0, 1)]
    assert len(hits[0]) > 1000
    assert hits[0] == hits[1]


def test_singleton_subsets_uncorrelated():
    spec = JumpSpec(
        2, {frozenset([0]): 0.3, frozenset([1]): 0.3}, np.array([1.0, 1.0])
    )
    n = 20000
    rows, banks, _, _ = _jump_events(12, spec, horizon=1.0, dt=1.0, width=n)
    r = np.corrcoef(_counts(spec, rows, banks, n).T)[0, 1]
    assert abs(r) < 3.0 / np.sqrt(n)


def test_marshall_olkin_projection():
    # lambda_1 = lambda_{12} + lambda_{1} = 0.07; mean count over horizon 10 is 0.7
    spec = JumpSpec(
        2, {frozenset([0, 1]): 0.05, frozenset([0]): 0.02}, np.array([1.0, 1.0])
    )
    assert spec.bank_intensities()[0] == pytest.approx(0.07)
    assert spec.bank_intensities()[1] == pytest.approx(0.05)
    n, horizon = 20000, 10.0
    rows, banks, _, _ = _jump_events(13, spec, horizon=horizon, dt=0.5, width=n)
    totals = _counts(spec, rows, banks, n)
    se = totals.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(totals.mean(axis=0) - spec.bank_intensities() * horizon) < 3 * se)


def test_jump_diffusion_terminal_mean():
    # the drift's compensator -kappa lambda makes the deflated assets a
    # martingale under jump-diffusion: E[A_T / A_0] = 1
    jumps = JumpSpec.systemic_idiosyncratic(0.5, np.array([0.3, 0.4]), np.array([2.0, 3.0]))
    r = _log_returns(_default_free(0.3, jumps), 99, 2.0, dt=0.05,
                     dynamics="jump-diffusion")
    growth = np.exp(r)
    se = growth.std(axis=0, ddof=1) / np.sqrt(growth.shape[0])
    assert np.all(np.abs(growth.mean(axis=0) - 1.0) < 3 * se)
