import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circuitlab import network
from circuitlab.network import (
    SOLVENT_OMEGA,
    BankNetwork,
    boundaries,
    clearing_vector,
    fig15_network,
    instrument_payoffs,
    kappa_coeffs,
    nondim_context,
    remove_bank,
    shifted_levels,
    simulate_paths,
    survival_probabilities,
    two_bank_survival_grid,
)
from circuitlab.rng import CorrelationMatrix, JumpSpec, PathNoise, RngStream
from circuitlab.sde import step_count
from circuitlab.wedge import survival_1d


def random_network(rng, n=None):
    n = n or rng.integers(2, 6)
    mutual = rng.uniform(0.0, 20.0, (n, n))
    np.fill_diagonal(mutual, 0.0)
    return BankNetwork(
        external_assets=rng.uniform(50.0, 150.0, n),
        external_liabilities=rng.uniform(30.0, 90.0, n),
        mutual=mutual,
        recoveries=rng.uniform(0.1, 0.9, n),
        sigma=rng.uniform(0.1, 0.6, n),
        mu=0.0,
    )


FIG15_INPUTS = dict(external_assets=[60.0, 80.0], external_liabilities=[50.0, 60.0],
                    mutual=[[0.0, 10.0], [20.0, 0.0]], recoveries=[0.4, 0.4],
                    sigma=[0.4, 0.4])
THREE_BANK_JUMPS = JumpSpec.systemic_idiosyncratic(0.1, np.full(3, 0.1), np.ones(3))
BAD_INPUTS = [
    ("sigma", [0.0, 0.4], "sigma must be positive"),
    ("sigma", [-0.4, 0.4], "sigma must be positive"),
    ("sigma", [0.4, 0.4, 0.4], r"sigma must have shape \(2,\), got \(3,\)"),
    ("recoveries", [0.4], r"recoveries must have shape \(2,\), got \(1,\)"),
    ("mutual", [[0.0, 10.0, 0.0]], r"mutual must have shape \(2, 2\)"),
    ("external_assets", 60.0, r"external_assets must have shape \(1,\), got \(\)"),
    ("recoveries", [0.4, math.nan], "recoveries must be finite"),
    ("mutual", [[0.0, math.nan], [20.0, 0.0]], "mutual must be finite"),
    ("mutual", [[0.0, -10.0], [20.0, 0.0]], "mutual must be non-negative"),
    ("mutual", [[1.0, 10.0], [20.0, 0.0]], "mutual must be non-negative with a zero diagonal"),
    ("recoveries", [0.4, 1.5], r"recoveries must lie in \[0, 1\]"),
    ("external_liabilities", [50.0, math.nan], "external_liabilities must be finite"),
    ("external_assets", [60.0, math.inf], "external_assets must be finite"),
    ("mu", math.inf, "mu must be finite"),
    ("mu", math.nan, "mu must be finite"),
    ("external_assets", [0.0, 80.0], "external_assets must be positive"),
    ("external_assets", [60.0, -1.0], "external_assets must be positive"),
    ("corr", CorrelationMatrix(np.eye(3)), "corr must be 2x2, got 3x3"),
    ("jumps", THREE_BANK_JUMPS, "jumps must cover 2 banks, got 3"),
    # the range messages name the first offending bank (entry, for mutual)
    # and its value
    ("sigma", [0.4, 0.0], "sigma must be positive, got 0.0 at bank 1$"),
    ("external_assets", [-2.0, -1.0], "external_assets must be positive, got -2.0 at bank 0$"),
    ("mutual", [[0.0, 10.0], [20.0, 1.5]],
     r"mutual must be non-negative with a zero diagonal, got 1.5 at entry \(1, 1\)$"),
    ("mutual", [[0.0, 10.0], [-20.0, 0.0]],
     r"mutual must be non-negative with a zero diagonal, got -20.0 at entry \(1, 0\)$"),
    ("recoveries", [-0.1, 0.4], r"recoveries must lie in \[0, 1\], got -0.1 at bank 0$"),
]


@pytest.mark.parametrize("name, value, message", BAD_INPUTS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(BAD_INPUTS)])
def test_bank_network_rejects_bad_inputs_by_name(name, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        BankNetwork(**{**FIG15_INPUTS, name: value})


@pytest.mark.parametrize("name, value, message", BAD_INPUTS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(BAD_INPUTS)])
def test_bank_network_rechecks_every_assignment(name, value, message):
    # a three-bank JumpSpec or a zero sigma assigned to a built network used
    # to pass unchecked
    net = BankNetwork(**FIG15_INPUTS)
    before = getattr(net, name)
    with pytest.raises(ValueError, match=f"^{message}"):
        setattr(net, name, value)
    # a refused assignment leaves the network as it was
    assert getattr(net, name) is before


def test_bank_network_takes_valid_assignments():
    # the assignments made after construction here, in test_wedge.py and in
    # the benchmark's jump network
    rng = np.random.default_rng(8)
    net = fig15_network(external_assets=(60.0, 120.0))
    net.recoveries = [1.0, 1.0]
    net.mutual = np.array([[0.0, rng.uniform(1.0, 15.0)], [rng.uniform(1.0, 15.0), 0.0]])
    net.external_liabilities = rng.uniform(40.0, 80.0, 2)
    net.external_assets = np.maximum(boundaries(net).terminal, 1.0) * rng.uniform(0.8, 1.4, 2)
    net.corr = CorrelationMatrix.from_scalar(0.3, 2)
    spec = JumpSpec.systemic_idiosyncratic(0.4, np.array([0.3, 0.3]), np.array([1.5, 1.5]))
    net.jumps = spec
    assert net.jumps is spec and net.corr.rho[0, 1] == 0.3
    # assigned arrays are stored as float arrays, as at construction
    assert net.recoveries.dtype == np.float64 and np.array_equal(net.recoveries, [1.0, 1.0])
    net.corr = None
    assert np.array_equal(net.corr.rho, np.eye(2))
    rec = simulate_paths(net, horizon=0.1, dt=0.01, paths=8, stream=RngStream(2),
                         dynamics="jump-diffusion")
    assert rec.omega.shape[-1] == 2


def test_bank_network_accepts_negative_external_liabilities():
    # remove_bank nets the recovered claim on the defaulted bank against
    # them: L_1 <- 1 + 10 - 0.9 * 20 < 0
    net = BankNetwork(**{**FIG15_INPUTS, "external_liabilities": [1.0, 60.0],
                         "recoveries": [0.9, 0.9]})
    assert remove_bank(net, 1).external_liabilities[0] == 1.0 + 10.0 - 0.9 * 20.0


def test_boundaries_full_recovery_collapse():
    net = fig15_network()
    net.recoveries = np.array([1.0, 1.0])
    b = boundaries(net)
    assert np.allclose(b.interior, b.terminal)


def test_boundaries_fig15_values():
    b = boundaries(fig15_network())
    assert b.interior == pytest.approx([4.0, 22.0])
    assert b.terminal == pytest.approx([40.0, 70.0])


def test_boundaries_decoupled_black_cox():
    net = fig15_network()
    net.mutual[:] = 0.0
    b = boundaries(net)
    assert b.interior == pytest.approx([0.4 * 50.0, 0.4 * 60.0])
    assert b.terminal == pytest.approx([50.0, 60.0])


def test_remove_bank_estate_settlement():
    red = remove_bank(fig15_network(), 1)
    # survivors absorb their debt to the estate net of recovered claims:
    # 50 + 10 - 0.4 * 20
    assert red.external_liabilities == pytest.approx([52.0])
    assert red.n == 1 and red.mutual.shape == (1, 1)


def test_remove_bank_no_links_no_change():
    net = fig15_network()
    net.mutual[:] = 0.0
    red = remove_bank(net, 0)
    assert red.external_liabilities == pytest.approx([60.0])
    assert red.external_assets == pytest.approx([80.0])


@st.composite
def removal_cases(draw):
    """Networks of 2 to 8 banks, recoveries anywhere in [0, 1], and the
    order in which all but one of the banks default."""
    n = draw(st.integers(2, 8))
    mutual = draw(arrays(float, (n, n), elements=st.floats(0.0, 20.0)))
    np.fill_diagonal(mutual, 0.0)
    net = BankNetwork(
        external_assets=draw(arrays(float, n, elements=st.floats(50.0, 150.0))),
        external_liabilities=draw(arrays(float, n, elements=st.floats(30.0, 90.0))),
        mutual=mutual,
        recoveries=draw(arrays(float, n, elements=st.floats(0.0, 1.0))),
        sigma=draw(arrays(float, n, elements=st.floats(0.1, 0.6))),
    )
    return net, draw(st.permutations(range(n)))[:-1]


@settings(deadline=None, max_examples=200)
@given(case=removal_cases())
def test_boundary_shift_identity_on_every_removal(case):
    # each removal shifts a survivor's interior boundary by (1 - R_i R_k) L_ki
    # and its terminal one by (1 - R_k) L_ki, both >= 0: outward, to rounding
    net, order = case
    banks = list(range(net.n))
    for bank in order:
        k = banks.index(bank)
        keep = [i for i in range(net.n) if i != k]
        old = boundaries(net)
        reduced = remove_bank(net, k)
        new = boundaries(reduced)
        shift_int = new.interior - old.interior[keep]
        shift_term = new.terminal - old.terminal[keep]
        expect_int = (1.0 - net.recoveries[keep] * net.recoveries[k]) * net.mutual[k, keep]
        expect_term = (1.0 - net.recoveries[k]) * net.mutual[k, keep]
        np.testing.assert_allclose(shift_int, expect_int, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(shift_term, expect_term, rtol=0.0, atol=1e-9)
        assert shift_int.min() >= -1e-9 and shift_term.min() >= -1e-9
        banks.remove(bank)
        net = reduced


def test_clearing_all_solvent():
    net = fig15_network()
    cv = clearing_vector(net, np.array([200.0, 200.0]))
    assert np.all(cv.omega == 1.0) and np.all(cv.solvent)


def test_clearing_single_bank_half():
    net = BankNetwork(
        external_assets=np.array([10.0]), external_liabilities=np.array([40.0]),
        mutual=np.zeros((1, 1)), recoveries=np.array([0.5]),
        sigma=np.array([0.2]))
    cv = clearing_vector(net, np.array([20.0]))
    assert cv.omega[0] == pytest.approx(0.5)


def test_clearing_a_tiny_liability_total():
    # bank 0 owes 1e-310 and holds 100: its quotient would overflow, so the
    # sweep divides only where a bank owes more than it holds
    net = BankNetwork(
        external_assets=np.array([10.0, 10.0]), external_liabilities=np.array([1e-310, 5.0]),
        mutual=np.array([[0.0, 0.0], [1.0, 0.0]]), recoveries=np.array([0.5, 0.5]),
        sigma=np.array([0.2, 0.2]))
    cv = clearing_vector(net, np.array([100.0, 1.0]))
    assert cv.omega.tolist() == [1.0, pytest.approx(1.0 / 6.0)]
    assert cv.solvent.tolist() == [True, False]


def test_clearing_matches_grid_brute_force():
    # exhaustive residual scan over the unit square at 1e-4 resolution
    net = fig15_network()
    a_t = np.array([30.0, 40.0])
    cv = clearing_vector(net, a_t)
    total = net.external_liabilities + net.interbank_liabilities
    claims = net.mutual
    grid = np.linspace(0.0, 1.0, 10001)
    best = (np.inf, None)
    for w1_block in np.array_split(grid, 20):
        w1 = w1_block[:, None]
        w2 = grid[None, :]
        f1 = np.minimum((a_t[0] + claims[1, 0] * w2) / total[0], 1.0)
        f2 = np.minimum((a_t[1] + claims[0, 1] * w1) / total[1], 1.0)
        resid = np.maximum(np.abs(f1 - w1), np.abs(f2 - w2))
        k = np.unravel_index(np.argmin(resid), resid.shape)
        if resid[k] < best[0]:
            best = (resid[k], (w1_block[k[0]], grid[k[1]]))
    assert abs(best[1][0] - cv.omega[0]) < 1e-3
    assert abs(best[1][1] - cv.omega[1]) < 1e-3


def test_clearing_monotone_on_random_networks():
    rng = np.random.default_rng(15)
    for _ in range(200):
        net = random_network(rng)
        a_t = rng.uniform(0.0, 120.0, net.n)
        cv = clearing_vector(net, a_t)  # asserts that its default set only grows
        assert np.all((cv.omega >= 0.0) & (cv.omega <= 1.0))
        # more terminal assets never lower a payout
        richer = clearing_vector(net, a_t + rng.uniform(0.0, 10.0, net.n))
        assert np.all(richer.omega >= cv.omega - 1e-12)


def test_kappa_solves_detailed_balance():
    rng = np.random.default_rng(16)
    net = fig15_network()
    l1, l2 = net.external_liabilities
    l12, l21 = net.mutual[0, 1], net.mutual[1, 0]
    for _ in range(25):
        a1, a2 = rng.uniform(0.0, 50.0, 2)
        k1, k2 = kappa_coeffs(a1, a2, net)
        assert a1 + k2 * l21 == pytest.approx(k1 * (l1 + l12), rel=1e-12)
        assert a2 + k1 * l12 == pytest.approx(k2 * (l2 + l21), rel=1e-12)


def test_clearing_equals_kappa_when_both_default():
    net = fig15_network()
    a_t = np.array([30.0, 40.0])
    cv = clearing_vector(net, a_t)
    assert np.all(cv.omega < 1.0)
    assert cv.omega == pytest.approx(kappa_coeffs(30.0, 40.0, net), abs=1e-15)
    assert cv.iterations == 2


# a densely linked pair: a sweep of the fixed point contracts by only 0.75
# per step here and needs about 96 steps to reach 1e-12
DENSE_PAIR = dict(external_assets=np.array([12.0, 12.0]),
                  external_liabilities=np.array([10.0, 10.0]),
                  mutual=np.array([[0.0, 30.0], [30.0, 0.0]]),
                  recoveries=np.array([0.4, 0.4]), sigma=np.array([0.3, 0.3]))


def test_clearing_a_densely_linked_pair():
    cv = clearing_vector(BankNetwork(**DENSE_PAIR), [1.0, 1.0])
    # 40 omega = 1 + 30 omega
    assert cv.omega == pytest.approx([0.1, 0.1], abs=1e-15)
    assert cv.iterations == 2 and not cv.solvent.any()


def test_simulating_a_densely_linked_pair():
    # interior boundaries are negative, so every path settles at the horizon
    rec = simulate_paths(BankNetwork(**DENSE_PAIR), horizon=2.0, dt=0.01, paths=1000,
                         stream=RngStream(3))
    assert not rec.interior_default.any()
    assert survival_probabilities(rec).joint == 0.343
    assert np.count_nonzero((rec.default_time == 2.0).all(axis=1)) == 301


@pytest.mark.parametrize("a_t, message", [
    ([math.nan, 1.0], "finite"), ([1.0, math.inf], "finite"),
    ([-5.0, 1.0], "non-negative"), ([1.0, 2.0, 3.0], r"shape \(\.\.\., 2\), got \(3,\)"),
    (1.0, r"got \(\)"), (np.ones((2, 3)), r"got \(2, 3\)")])
def test_clearing_rejects_bad_terminal_assets_by_name(a_t, message):
    with pytest.raises(ValueError, match=f"terminal_assets must .*{message}"):
        clearing_vector(fig15_network(), a_t)


def sweep_clearing(net, terminal_assets, tol=1e-15, max_sweeps=100_000):
    """The monotone Eisenberg-Noe sweep, the oracle of the fictitious-default
    clearing: omega <- min((A_T + claims received) / total liabilities, 1)
    from omega = 1 until no payout moves by `tol`, each sweep asserted
    non-increasing."""
    a = np.asarray(terminal_assets, dtype=float)
    total = net.external_liabilities + net.interbank_liabilities
    zero_liab = total <= 0.0
    due = np.where(zero_liab, 1.0, total)
    omega = np.ones_like(a)
    for _ in range(max_sweeps):
        new_omega = np.minimum(np.where(zero_liab, 1.0, (a + net.mutual.T @ omega) / due), 1.0)
        assert np.all(new_omega <= omega + 1e-12), "the sweep must be non-increasing"
        done = np.max(np.abs(new_omega - omega)) < tol
        omega = new_omega
        if done:
            return omega
    raise RuntimeError(f"the clearing sweep did not converge in {max_sweeps} sweeps")


def quarters(lo, hi):
    """Multiples of 1/4 in [lo, hi].  The sweep oracle is only as accurate as
    its contraction allows: with finer values a nearly closed default set
    (external debt 0.0078 against a pair owing 1 and 9) stops the sweep
    1e-10 short of the fixed point."""
    return st.integers(4 * lo, 4 * hi).map(lambda k: k / 4.0)


@st.composite
def clearing_cases(draw):
    """Networks of 1 to 6 banks with external liabilities of either sign or
    zero, as `remove_bank` leaves them, and terminal assets >= 0."""
    n = draw(st.integers(1, 6))
    mutual = draw(arrays(float, (n, n), elements=quarters(0, 40)))
    np.fill_diagonal(mutual, 0.0)
    net = BankNetwork(external_assets=np.ones(n),
                      external_liabilities=draw(arrays(float, n, elements=quarters(-20, 60))),
                      mutual=mutual, recoveries=np.full(n, 0.5), sigma=np.full(n, 0.2))
    return net, draw(arrays(float, n, elements=quarters(0, 60)))


def closed_case(mutual):
    """A closed network, with no external liabilities or assets."""
    n = len(mutual)
    return BankNetwork(external_assets=np.ones(n), external_liabilities=np.zeros(n),
                       mutual=np.array(mutual), recoveries=np.full(n, 0.5),
                       sigma=np.full(n, 0.2)), np.zeros(n)


@settings(deadline=None, max_examples=300)
@given(case=clearing_cases())
# a bank paying par to within rounding: counted short, it makes the pair's
# round singular and sends the three banks to the least fixed point (0, 0, 0)
@example(case=closed_case([[0.0, 14.2286], [18.4606, 0.0]]))
@example(case=closed_case([[0.0, 38.1836, 19.9958], [17.0091, 0.0, 39.8039],
                           [0.0, 18.4018, 0.0]]))
def test_fictitious_default_matches_the_sweep(case):
    net, a_t = case
    cv = clearing_vector(net, a_t)
    omega = sweep_clearing(net, a_t)
    assert np.max(np.abs(cv.omega - omega)) <= 1e-10
    assert np.array_equal(cv.solvent, omega >= SOLVENT_OMEGA)
    assert cv.iterations <= net.n + 1


def test_equity_invariant_under_mutual_rebooking():
    # moving a claim pair around while preserving A_hat - L_hat per bank
    net = fig15_network()
    e0 = net.equity.copy()
    net.mutual += np.array([[0.0, 5.0], [5.0, 0.0]])
    assert np.allclose(net.equity, e0)


def test_simulate_no_defaults_when_far_above():
    net = fig15_network(external_assets=(4000.0, 4000.0))
    rec = simulate_paths(net, horizon=1.0, dt=0.01, paths=200,
                         stream=RngStream(3))
    assert not rec.interior_default.any()
    assert np.all(rec.omega == 1.0)
    est = survival_probabilities(rec)
    assert est.joint == 1.0 and est.joint_stderr == 0.0


def test_single_bank_mc_matches_closed_form():
    net = BankNetwork(
        external_assets=np.array([100.0]), external_liabilities=np.array([80.0]),
        mutual=np.zeros((1, 1)), recoveries=np.array([0.5]),
        sigma=np.array([0.3]), mu=0.05)
    ctx = nondim_context(net)
    x0 = ctx.zeta[0] * np.log(net.external_assets[0] / ctx.interior_levels[0])
    horizon = 5.0
    rec = simulate_paths(net, horizon, dt=0.002, paths=20000,
                         stream=RngStream(11))
    est = survival_probabilities(rec)
    exact = survival_1d(x0, ctx.xi[0], 0.0, ctx.m_terminal[0],
                        ctx.scaled_time(horizon))
    assert abs(est.marginal[0] - exact) < 3.0 * est.marginal_stderr[0] + 0.004


def test_marginal_at_least_joint():
    net = fig15_network(external_assets=(48.0, 160.0))
    rec = simulate_paths(net, horizon=12.5, dt=0.02, paths=4000,
                         stream=RngStream(21))
    est = survival_probabilities(rec)
    assert np.all(est.marginal >= est.joint - 1e-12)


def test_grid_evaluator_matches_simulate_paths():
    # identical probabilistic content and identical drivers, correlated
    # through one Cholesky rule: estimates agree on a common point
    horizon = 12.5
    dt_cal = horizon / 2000.0
    x_pt = np.array([2.0, 2.0])
    for rho in (0.0, 0.3, -0.5):
        net = fig15_network(rho=rho)
        ctx = nondim_context(net)
        assets = ctx.interior_levels * np.exp(x_pt / ctx.zeta)
        rec = simulate_paths(fig15_network(rho=rho, external_assets=assets), horizon,
                             dt=dt_cal, paths=1000, stream=RngStream(7))
        est = survival_probabilities(rec)
        assert 0.0 < est.joint < 1.0, rho      # interior: a mismatch can show
        grid = two_bank_survival_grid(net, horizon, dt_scaled=0.16 * dt_cal,
                                      paths=1000, stream=RngStream(7),
                                      x1_grid=x_pt[:1], x2_grid=x_pt[1:])
        assert grid.joint[0, 0] == pytest.approx(est.joint, abs=1e-12), rho
        assert grid.marginal1[0, 0] == pytest.approx(est.marginal[0], abs=1e-12), rho


def test_monte_carlo_rejects_bad_run_settings():
    net = fig15_network()
    grid = {"horizon": 1.0, "dt_scaled": 0.01, "paths": 10}
    for overrides, message in (
            ({"dt_scaled": 0.0}, "dt_scaled"), ({"dt_scaled": -0.1}, "dt_scaled"),
            ({"dt_scaled": math.nan}, "dt_scaled"), ({"dt_scaled": math.inf}, "dt_scaled"),
            ({"paths": 0}, "paths"), ({"paths": -3}, "paths"),
            ({"paths": 2.5}, "paths must be a positive integer"),
            ({"paths": np.float64(3.0)}, "paths must be a positive integer"),
            ({"horizon": -1.0}, "horizon"), ({"horizon": math.nan}, "horizon"),
            ({"horizon": 1e-6}, "horizon"), ({"horizon": 1.05}, "whole"),
            ({"x1_grid": [math.nan, 2.0, -1.0, math.inf], "x2_grid": [2.0, math.nan]},
             "grid points must be finite")):
        with pytest.raises(ValueError, match=message):
            two_bank_survival_grid(net, **{**grid, **overrides})
    for horizon, dt in ((math.nan, 0.01), (math.inf, 0.01), (-1.0, 0.01),
                        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)):
        with pytest.raises(ValueError, match="finite and positive"):
            simulate_paths(net, horizon, dt, paths=10)
    with pytest.raises(ValueError, match="half a step"):
        simulate_paths(net, 0.004, 0.01, paths=4)
    with pytest.raises(ValueError, match="whole"):
        simulate_paths(net, 0.015, 0.01, paths=4)
    for paths in (0, -1, 2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="paths must be a positive integer"):
            simulate_paths(net, 1.0, 0.01, paths=paths)


def test_jump_dynamics_increase_defaults():
    spec = JumpSpec.systemic_idiosyncratic(0.4, np.array([0.3, 0.3]),
                                           np.array([1.5, 1.5]))
    net = fig15_network(external_assets=(60.0, 120.0))
    net.jumps = spec
    rec_j = simulate_paths(net, horizon=5.0, dt=0.01, paths=3000,
                           stream=RngStream(5), dynamics="jump-diffusion")
    rec_d = simulate_paths(net, horizon=5.0, dt=0.01, paths=3000,
                           stream=RngStream(5), dynamics="lognormal")
    sj = survival_probabilities(rec_j)
    sd = survival_probabilities(rec_d)
    assert sj.joint < sd.joint


def test_simulation_reproducible():
    net = fig15_network(external_assets=(48.0, 150.0))
    a = simulate_paths(net, 2.0, 0.01, paths=500, stream=RngStream(9))
    b = simulate_paths(net, 2.0, 0.01, paths=500, stream=RngStream(9))
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.default_time, b.default_time,  equal_nan=True)


def test_instrument_payoffs_basic():
    net = fig15_network(external_assets=(46.0, 100.0))
    rec = simulate_paths(net, 12.5, 0.02, paths=4000, stream=RngStream(31))
    cds1, se1 = instrument_payoffs(rec, "CDS_1")
    cds2, se2 = instrument_payoffs(rec, "CDS_2")
    ftd, _ = instrument_payoffs(rec, "FTD")
    assert 0.0 < cds1 < 1.0
    assert ftd >= max(cds1, cds2) - 1e-12
    # deep-in-the-money network: all payoffs zero
    rich = fig15_network(external_assets=(5000.0, 5000.0))
    rec2 = simulate_paths(rich, 1.0, 0.05, paths=100, stream=RngStream(1))
    assert instrument_payoffs(rec2, "FTD")[0] == 0.0
    with pytest.raises(ValueError, match="instrument"):
        instrument_payoffs(rec, "CDO")


def test_ftd_dominates_pathwise():
    net = fig15_network(external_assets=(46.0, 90.0))
    rec = simulate_paths(net, 12.5, 0.02, paths=2000, stream=RngStream(41))
    loss = np.where(np.isnan(rec.default_time), 0.0, 1.0 - rec.omega)
    ftd = loss.max(axis=1)
    assert np.all(ftd + 1e-15 >= loss[:, 0])
    assert np.all(ftd + 1e-15 >= loss[:, 1])


def test_interior_settlement_near_recovery():
    # a bank crossing its interior boundary pays out roughly its recovery
    net = fig15_network(external_assets=(42.0, 300.0))
    rec = simulate_paths(net, 12.5, 0.005, paths=2000, stream=RngStream(51))
    crossed = rec.interior_default[:, 0]
    assert crossed.any()
    payouts = rec.omega[crossed, 0]
    assert abs(np.median(payouts) - net.recoveries[0]) < 0.1


@st.composite
def clearing_batches(draw):
    n = draw(st.integers(1, 6))
    mutual = draw(arrays(float, (n, n), elements=st.floats(0.0, 20.0)))
    np.fill_diagonal(mutual, 0.0)
    net = BankNetwork(
        external_assets=np.ones(n),
        external_liabilities=draw(arrays(float, n, elements=st.floats(30.0, 90.0))),
        mutual=mutual, recoveries=np.full(n, 0.5), sigma=np.full(n, 0.2))
    paths = draw(st.integers(1, 9))
    return net, draw(arrays(float, (paths, n), elements=st.floats(0.0, 150.0)))


@settings(deadline=None, max_examples=150)
@given(batch=clearing_batches())
def test_batched_clearing_rows_are_single_path_fixed_points(batch):
    net, a_t = batch
    cv = clearing_vector(net, a_t)
    assert cv.omega.shape == a_t.shape and cv.solvent.shape == a_t.shape
    assert np.all((cv.omega >= 0.0) & (cv.omega <= 1.0))
    total = net.external_liabilities + net.interbank_liabilities
    rounds = []
    for row, a_row in enumerate(a_t):
        single = clearing_vector(net, a_row)
        rounds.append(single.iterations)
        # a path's payouts do not depend on the paths batched with it
        assert np.array_equal(cv.omega[row], single.omega)
        assert np.array_equal(cv.solvent[row], single.solvent)
        fixed = np.minimum((a_row + net.mutual.T @ cv.omega[row]) / total, 1.0)
        assert np.max(np.abs(fixed - cv.omega[row])) <= 1e-10
    assert cv.iterations == max(rounds) <= net.n + 1


def stressed_network(rng, n, rho=0.0, jumps=False):
    """Random N-bank network started near its terminal boundaries, so that
    paths default both at crossings and at clearing."""
    net = random_network(rng, n)
    terminal = np.maximum(boundaries(net).terminal, 1.0)
    net.external_assets = terminal * rng.uniform(0.8, 1.4, n)
    net.corr = CorrelationMatrix.from_scalar(rho, n)
    if jumps:
        net.jumps = JumpSpec.systemic_idiosyncratic(0.3, np.full(n, 0.2), np.full(n, 2.0))
    return net


N_BANK_CASES = [(3, 0.3, False), (4, 0.0, True), (5, 0.3, False), (4, 0.3, True)]


def _records_equal(a, b):
    return (np.array_equal(a.omega, b.omega)
            and np.array_equal(a.default_time, b.default_time, equal_nan=True)
            and np.array_equal(a.interior_default, b.interior_default)
            and np.array_equal(a.terminal_assets, b.terminal_assets, equal_nan=True))


@pytest.mark.parametrize("case", range(len(N_BANK_CASES)))
def test_n_bank_paths_do_not_depend_on_chunking(case, monkeypatch):
    n, rho, jumps = N_BANK_CASES[case]
    net = stressed_network(np.random.default_rng(30 + case), n, rho, jumps)
    dynamics = "jump-diffusion" if jumps else "lognormal"
    runs = []
    for chunk in (4096, 16, 7, 1):
        monkeypatch.setattr(network, "PATH_CHUNK", chunk)
        runs.append(simulate_paths(net, 3.0, 0.01, paths=50, stream=RngStream(70 + case),
                                   dynamics=dynamics))
    assert runs[0].interior_default.any()
    assert (runs[0].default_time == 3.0).any()
    for other in runs[1:]:
        assert _records_equal(runs[0], other)


def path_major_paths(net, horizon, dt, paths, stream, dynamics):
    """The oracle of `simulate_paths`: its step loop with the state held
    path-major, (paths, N), all paths in one chunk.  Each step transposes the
    correlated noise row, and each crossing is settled by array arithmetic
    on the path's row, reading the reduced network's liabilities."""
    n = net.n
    use_jumps = dynamics == "jump-diffusion"
    kappa_lam = (net.jumps.compensators * net.jumps.bank_intensities()
                 if use_jumps else np.zeros(n))
    drift = (-0.5 * net.sigma ** 2 - kappa_lam) * dt
    sqdt = math.sqrt(dt)
    default_time = np.full((paths, n), np.nan)
    interior_default = np.zeros((paths, n), dtype=bool)
    omega = np.ones((paths, n))
    terminal_assets = np.full((paths, n), np.nan)
    sets = {}
    noise = PathNoise(stream, paths)
    jump_events = (network._draw_jump_events(noise, net.jumps, horizon, dt, paths)
                   if use_jumps else {})
    log_a = np.tile(np.log(net.external_assets), (paths, 1))
    alive = np.ones((paths, n), dtype=bool)
    log_interior = np.tile(network._survivors(sets, net, alive[0]).log_interior, (paths, 1))
    for k_step, z in enumerate(noise.rows(step_count(horizon, dt), n)):
        dw = network._correlate(net.corr.cholesky, z).T * sqdt
        log_a = log_a + drift + net.sigma * dw
        if k_step in jump_events:
            rows, banks, amps = jump_events[k_step]
            np.add.at(log_a, (rows, banks), amps)
        for row in np.nonzero((alive & (log_a <= log_interior)).any(axis=1))[0]:
            while True:     # the path's crossings, deepest first
                depth = np.where(alive[row], log_interior[row] - log_a[row], -np.inf)
                k = int(np.argmax(depth))
                if depth[k] < 0 or not alive[row, k]:
                    break
                s = network._survivors(sets, net, alive[row])
                pos = int(np.searchsorted(s.idx, k))
                due = s.net.external_liabilities[pos] + s.net.interbank_liabilities[pos]
                assets_now = math.exp(log_a[row, k]) + s.net.interbank_assets[pos]
                omega[row, k] = min(assets_now / due, 1.0) if due > 0 else 1.0
                default_time[row, k] = (k_step + 1) * dt
                interior_default[row, k] = True
                alive[row, k] = False
                log_interior[row] = network._survivors(sets, net, alive[row]).log_interior
    network._settle_terminal(sets, net, log_a, alive, omega, terminal_assets,
                             default_time, horizon)
    return network.PathRecords(n, horizon, default_time, interior_default, omega,
                               terminal_assets)


@st.composite
def network_runs(draw):
    n = draw(st.integers(1, 6))
    rho = draw(st.sampled_from([0.0, 0.3, 0.8, -0.15]))
    jumps = draw(st.booleans())
    net = stressed_network(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                           n, rho, jumps)
    return (net, "jump-diffusion" if jumps else "lognormal", draw(st.integers(1, 40)),
            draw(st.sampled_from([1, 7, 2048, 4096])), draw(st.integers(0, 2**32 - 1)))


# identical banks moved by one Brownian motion cross at equal depths, so
# the lowest index must settle first
TWIN_BANKS = BankNetwork(external_assets=np.full(2, 75.0), external_liabilities=np.full(2, 55.0),
                         mutual=np.array([[0.0, 15.0], [15.0, 0.0]]), recoveries=np.full(2, 0.4),
                         sigma=np.full(2, 0.4), corr=CorrelationMatrix.from_scalar(1.0, 2))


@settings(deadline=None, max_examples=40)
@given(run=network_runs())
@example(run=(TWIN_BANKS, "lognormal", 40, 7, 3))
def test_simulate_paths_equals_the_path_major_oracle(run):
    net, dynamics, paths, chunk, seed = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "PATH_CHUNK", chunk)
        got = simulate_paths(net, 3.0, 0.01, paths, RngStream(seed), dynamics=dynamics)
    want = path_major_paths(net, 3.0, 0.01, paths, RngStream(seed), dynamics)
    for name in ("default_time", "interior_default", "omega", "terminal_assets"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_survival_grid_does_not_depend_on_chunking(monkeypatch):
    net = fig15_network(rho=0.3)
    grids = []
    for chunk in (256, 7, 1):
        monkeypatch.setattr(network, "GRID_CHUNK", chunk)
        grids.append(two_bank_survival_grid(net, 2.0, 0.01, 60, stream=RngStream(8)))
    assert 0.0 < grids[0].joint.mean() < 1.0
    for other in grids[1:]:
        assert np.array_equal(grids[0].joint, other.joint)
        assert np.array_equal(grids[0].marginal1, other.marginal1)


@pytest.mark.parametrize("case", range(len(N_BANK_CASES)))
def test_n_bank_terminal_settlement_clears_reduced_networks(case):
    # survivors settle on the network left after removing the crossed banks,
    # here removed in their order of default rather than by index
    n, rho, jumps = N_BANK_CASES[case]
    net = stressed_network(np.random.default_rng(30 + case), n, rho, jumps)
    horizon = 3.0
    rec = simulate_paths(net, horizon, 0.01, paths=200, stream=RngStream(80 + case),
                         dynamics="jump-diffusion" if jumps else "lognormal")
    cleared = 0
    for row in range(rec.n_paths):
        crossed = np.flatnonzero(rec.interior_default[row])
        alive = np.flatnonzero(~rec.interior_default[row])
        if alive.size == 0:
            continue
        reduced, idx = net, list(range(n))
        for k in crossed[np.argsort(rec.default_time[row, crossed], kind="stable")]:
            reduced = remove_bank(reduced, idx.index(k))
            idx.remove(k)
        cv = clearing_vector(reduced, rec.terminal_assets[row, alive])
        assert np.max(np.abs(rec.omega[row, alive] - cv.omega)) <= 1e-15
        assert np.all((rec.default_time[row, alive] == horizon) == ~cv.solvent)
        assert np.all(np.isnan(rec.default_time[row, alive]) == cv.solvent)
        cleared += int((~cv.solvent).any())
    assert cleared > 0 and (rec.interior_default.sum(axis=1) >= 2).any()
