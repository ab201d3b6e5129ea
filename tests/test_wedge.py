import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ive

from circuitlab import wedge
from circuitlab.network import (
    BankNetwork,
    fig15_network,
    nondim_context,
    shifted_levels,
    two_bank_domains,
    two_bank_survival_grid,
)
from circuitlab.rng import JumpSpec, RngStream
from circuitlab.wedge import (
    QuadratureError,
    QuadratureSpec,
    SeriesError,
    WedgeContext,
    boundary_flux,
    conservation_check,
    iv_scaled,
    joint_survival_Q,
    marginal_survival_Q1,
    norm_cdf,
    q1_standalone,
    survival_1d,
    wedge_green,
)


def phi_t(z, t):
    return np.exp(-z * z / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def product_green(t, x1, x2, xs, xi):
    """Independent-coordinate oracle: tilted method-of-images densities."""
    out = 1.0
    for x, s, drift in ((x1, xs[0], xi[0]), (x2, xs[1], xi[1])):
        p0 = phi_t(x - s, t) - phi_t(x + s, t)
        out = out * p0 * np.exp(drift * (x - s) - 0.5 * drift * drift * t)
    return out


def test_context_geometry():
    ctx = WedgeContext.build(0.0, [-0.5, -0.5])
    assert ctx.varpi == pytest.approx(math.pi / 2)
    assert [ctx.order(n) for n in (1, 2, 3)] == pytest.approx([2.0, 4.0, 6.0])
    # wedge opens with correlation, closes against it
    assert WedgeContext.build(0.6, [0, 0]).varpi > math.pi / 2
    assert WedgeContext.build(-0.6, [0, 0]).varpi < math.pi / 2
    r, phi = ctx.polar(1.0, 1.0)
    assert r == pytest.approx(math.sqrt(2.0))
    assert phi == pytest.approx(math.pi / 4)


def test_survival_1d_limits():
    assert survival_1d(60.0, -0.1, 0.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert survival_1d(0.0, 0.3, 0.0, 1.0, 2.0) == 0.0
    assert survival_1d(-1.0, 0.3, 0.0, 1.0, 2.0) == 0.0


def test_survival_1d_closed_value():
    # N(0.5) - N(-1.5) for the driftless case X'=1, barrier 0, level 0.5, tau 1
    expected = float(norm_cdf(0.5) - norm_cdf(-1.5))
    assert survival_1d(1.0, 0.0, 0.0, 0.5, 1.0) == pytest.approx(expected, rel=1e-14)


def test_survival_1d_with_the_terminal_level_below_the_barrier():
    # m_eq < m_lt: a path that never touches m_lt finishes above m_eq, so the
    # value is the m_eq = m_lt one, and driftless 2 N((x - m_lt)/sqrt(tau)) - 1;
    # the reflection formula taken at m_eq = 0.2 would give 0.36740
    got = survival_1d(1.0, 0.0, 0.5, 0.2, 1.0)
    assert got == survival_1d(1.0, 0.0, 0.5, 0.5, 1.0)
    assert got == pytest.approx(float(2.0 * norm_cdf(0.5) - 1.0), rel=1e-14)
    x = np.array([0.4, 0.6, 1.0, 3.0])
    assert np.array_equal(survival_1d(x, -0.3, 0.5, -1.0, 2.0),
                          survival_1d(x, -0.3, 0.5, 0.5, 2.0))


@settings(deadline=None, max_examples=200)
@given(x=st.floats(-1e8, 1e8), xi=st.floats(-5.0, 5.0), m_lt=st.floats(-5.0, 5.0),
       gap=st.floats(0.0, 10.0), tau=st.floats(1e-2, 1e3))
@example(x=750.0, xi=-0.5, m_lt=0.0, gap=0.3, tau=2.0)
@example(x=-1e3, xi=1.0, m_lt=0.0, gap=0.5, tau=1.0)
def test_survival_1d_is_a_probability_far_from_the_boundary(x, xi, m_lt, gap, tau):
    # exp(-2 xi (x - m_lt)) times the reflected normal tail was inf * 0, a
    # NaN from x of about 710 at xi = -0.5, where the survival is 1; far
    # below m_lt with xi > 0 it overflowed, where the survival is 0
    got = survival_1d(x, xi, m_lt, m_lt + gap, tau)
    assert math.isfinite(got) and 0.0 <= got <= 1.0


@settings(deadline=None, max_examples=100)
@given(x=arrays(float, st.integers(1, 6), elements=st.floats(-20.0, 20.0)),
       xi=st.floats(-5.0, 5.0), m_lt=st.floats(-5.0, 5.0), m_eq=st.floats(-5.0, 10.0),
       tau=arrays(float, st.integers(1, 5), elements=st.floats(1e-12, 1e3)))
def test_survival_1d_takes_an_array_tau(x, xi, m_lt, m_eq, tau):
    # a column of remaining lives against a row of sources, or a row of them
    # at one source: every entry is the scalar call's, bit for bit
    rows = survival_1d(x, xi, m_lt, m_eq, tau[:, None])
    assert rows.shape == (len(tau), len(x))
    for row, t in zip(rows, tau):
        assert row.tobytes() == survival_1d(x, xi, m_lt, m_eq, float(t)).tobytes()
    at_one = survival_1d(float(x[0]), xi, m_lt, m_eq, tau)
    assert at_one.tobytes() == np.array(
        [survival_1d(float(x[0]), xi, m_lt, m_eq, float(t)) for t in tau]).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_survival_1d_names_a_bad_tau_entry(bad):
    with pytest.raises(ValueError, match="tau"):
        survival_1d(np.array([1.0, 2.0]), -0.1, 0.0, 0.5, np.array([[1.0], [bad], [2.0]]))


def test_q1_standalone_far_from_the_boundary():
    assert q1_standalone(fig15_network(), 750.0, 12.5) == 1.0


@settings(deadline=None, max_examples=100)
@example(rho=0.3, x1=70.0, x2=1.5)
@example(rho=0.3, x1=1e4, x2=1.5)
@given(rho=st.floats(-0.9, 0.9), x1=st.floats(30.0, 1e4), x2=st.floats(0.5, 5.0))
def test_joint_survival_far_from_bank_1_is_bank_2_alone(rho, x1, x2):
    # bank 1 neither defaults nor ends short, so Q is bank 2's own survival;
    # a terminal rule cut only above the source raised QuadratureError from
    # x1 of about 70, its Gaussian falling between the nodes
    net = fig15_network(rho=rho)
    ctx = two_bank_domains(net).ctx
    alone = survival_1d(x2, ctx.xi[1], 0.0, float(ctx.m_terminal[1]), ctx.scaled_time(12.5))
    q, _ = joint_survival_Q(net, (x1, x2), 12.5)
    assert abs(q - alone) < 1e-11


# Q1 with one bank far from its boundary, at horizon 12.5: its terminal and
# face rules were cut only above the source, so the few dozen nodes between
# the floor and the source missed its Gaussian.  Q1 raised QuadratureError
# from about 60 units at every example below, and returned 0.103 at source
# (1e8, 1.5), where it is 1
@settings(deadline=None, max_examples=30)
@example(rho=0.3, far=70.0, near=1.5)
@example(rho=0.3, far=1e4, near=1.5)
@given(rho=st.floats(-0.9, 0.9), far=st.floats(30.0, 1e4), near=st.floats(0.5, 5.0))
def test_q1_far_from_bank_1_is_bank_1_alone(rho, far, near):
    net = fig15_network(rho=rho)
    q1, _ = marginal_survival_Q1(net, (far, near), 12.5)
    assert abs(q1 - q1_standalone(net, far, 12.5)) < 1e-11


@settings(deadline=None, max_examples=40)
@example(rho=0.3, near=2.0, far=70.0)
@example(rho=0.3, near=2.0, far=1e4)
@given(rho=st.floats(-0.9, 0.9), near=st.floats(0.5, 5.0), far=st.floats(30.0, 1e4))
def test_q1_far_from_bank_2_is_bank_1_alone(rho, near, far):
    # bank 2 never defaults nor ends short, so bank 1 keeps its own
    # boundaries, and Q cannot exceed Q1
    net = fig15_network(rho=rho)
    q, err_q = joint_survival_Q(net, (near, far), 12.5)
    q1, err_q1 = marginal_survival_Q1(net, (near, far), 12.5)
    assert abs(q1 - q1_standalone(net, near, 12.5)) < 1e-11
    assert q <= q1 + err_q + err_q1


def _survivals(net, x_src, horizon):
    """(Q, its estimate, Q1, its estimate), each finite, or None where a
    rule misses its target or a series its orders, by name."""
    try:
        out = (*joint_survival_Q(net, x_src, horizon), *marginal_survival_Q1(net, x_src, horizon))
    except (QuadratureError, SeriesError):
        return None
    assert all(math.isfinite(v) for v in out)
    return out


@settings(deadline=None, max_examples=10)
@example(rho=0.3, x1=2.0, x2=2.0, horizon=12.5)
@given(rho=st.floats(-0.9, 0.9), x1=st.floats(0.3, 30.0), x2=st.floats(0.3, 30.0),
       horizon=st.floats(1.0, 40.0))
def test_survival_bounds_and_growth_in_the_source(rho, x1, x2, horizon):
    # 0 <= Q <= Q1 <= 1, and neither falls as a source coordinate grows by
    # 10%, each within the calls' estimates and 1e-13 of rounding (a far
    # source fell by 1.4e-14 with estimates of 1e-16)
    net = fig15_network(rho=rho)
    base = _survivals(net, (x1, x2), horizon)
    if base is None:
        return
    q, err_q, q1, err_q1 = base
    assert 0.0 <= q <= q1 + err_q + err_q1
    assert q1 <= 1.0 + err_q1 + 1e-13
    for grown in ((1.1 * x1, x2), (x1, 1.1 * x2)):
        after = _survivals(net, grown, horizon)
        if after is None:
            continue
        q_up, err_q_up, q1_up, err_q1_up = after
        assert q_up >= q - err_q - err_q_up - 1e-13
        assert q1_up >= q1 - err_q1 - err_q1_up - 1e-13


def test_survival_1d_against_bridge_sampler():
    # exact Monte Carlo: terminal draw + Brownian-bridge crossing probability
    x0, m_lt, m_eq, tau = 1.0, 0.0, 0.5, 1.0
    gen = RngStream(2024).generator()
    n = 10**6
    x_t = x0 + math.sqrt(tau) * gen.standard_normal(n)
    above = x_t > m_eq
    p_no_cross = np.where(
        (x_t > m_lt) & (x0 > m_lt),
        1.0 - np.exp(-2.0 * np.clip((x0 - m_lt) * (x_t - m_lt), 0, None) / tau),
        0.0,
    )
    hits = above * p_no_cross
    est = hits.mean()
    se = hits.std() / math.sqrt(n)
    assert abs(survival_1d(x0, 0.0, m_lt, m_eq, tau) - est) < 3.0 * se


def test_survival_1d_with_drift_against_bridge_sampler():
    x0, m_lt, m_eq, tau, xi = 1.5, 0.3, 1.0, 2.0, -0.4
    gen = RngStream(77).generator()
    n = 10**6
    x_t = x0 + xi * tau + math.sqrt(tau) * gen.standard_normal(n)
    p_no_cross = np.where(
        x_t > m_lt,
        1.0 - np.exp(-2.0 * np.clip((x0 - m_lt) * (x_t - m_lt), 0, None) / tau),
        0.0,
    )
    hits = (x_t > m_eq) * p_no_cross
    est, se = hits.mean(), hits.std() / math.sqrt(n)
    assert abs(survival_1d(x0, xi, m_lt, m_eq, tau) - est) < 3.0 * se


def test_green_product_form_at_zero_correlation():
    ctx = WedgeContext.build(0.0, [-0.5, -0.25])
    xs = (1.3, 2.1)
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = rng.uniform(0.2, 3.0)
        x1, x2 = rng.uniform(0.05, 5.0, 2)
        got = wedge_green(ctx, t, np.array([x1]), np.array([x2]), xs)[0]
        ref = product_green(t, x1, x2, xs, ctx.xi)
        assert got == pytest.approx(ref, abs=1e-10)


def test_green_symmetry_under_bank_swap():
    ctx = WedgeContext.build(0.0, [-0.3, -0.3])
    a = wedge_green(ctx, 1.2, np.array([0.8]), np.array([2.0]), (1.0, 1.5))[0]
    b = wedge_green(ctx, 1.2, np.array([2.0]), np.array([0.8]), (1.5, 1.0))[0]
    assert a == pytest.approx(b, rel=1e-12)


def test_green_subprobability_mass():
    net = fig15_network(rho=0.3)
    res = conservation_check(net, (1.5, 2.0), 1.0 / 0.16)
    assert res["interior"] <= 1.0 + 1e-9
    assert res["interior"] > 0.0


def test_flux_nonnegative_and_product_form():
    ctx = WedgeContext.build(0.0, [-0.5, -0.5])
    xs = (1.3, 2.1)
    rng = np.random.default_rng(1)
    for _ in range(25):
        t = rng.uniform(0.2, 3.0)
        x = rng.uniform(0.05, 5.0)
        g2 = boundary_flux(ctx, t, np.array([x]), xs, face=2)[0]
        assert g2 >= 0.0
        p1 = (phi_t(x - xs[0], t) - phi_t(x + xs[0], t)) * math.exp(
            ctx.xi[0] * (x - xs[0]) - 0.5 * ctx.xi[0] ** 2 * t)
        fp2 = xs[1] / math.sqrt(2 * math.pi * t**3) * math.exp(
            -(xs[1] + ctx.xi[1] * t) ** 2 / (2 * t))
        assert g2 == pytest.approx(p1 * fp2, abs=1e-10)


def test_conservation_identity():
    net = fig15_network()
    for t_cal in (0.5 / 0.16, 1.0 / 0.16, 5.0 / 0.16, 20.0 / 0.16):
        res = conservation_check(net, (2.0, 1.5), t_cal)
        assert abs(res["total"] - 1.0) < 1e-10


def test_conservation_with_correlation():
    res = conservation_check(fig15_network(rho=0.5), (2.0, 1.5), 1.0 / 0.16)
    assert abs(res["total"] - 1.0) < 1e-10


# the largest |total - 1| measured over 262 draws of this range (a grid with
# its corners, 80 random draws and the first two examples) was 1.6e-10, at
# the third example; the first two once totalled 1 - 1.8e-3 and 1 + 1.8e-8,
# and a source 0.3 from both faces over horizon 150 missed the rule's own
# target, when the face rules were graded only toward the axes
CONSERVATION_BOUND = 2e-10


@settings(deadline=None, max_examples=12)
@example(rho=-0.612, x1=4.75, x2=0.41, log_horizon=math.log(4.4))
@example(rho=0.139, x1=2.26, x2=0.31, log_horizon=math.log(53.4))
@example(rho=-0.9, x1=5.0, x2=5.0, log_horizon=math.log(150.0))
@example(rho=-0.9, x1=0.3, x2=0.3, log_horizon=math.log(150.0))
@given(rho=st.floats(-0.9, 0.9), x1=st.floats(0.3, 5.0), x2=st.floats(0.3, 5.0),
       log_horizon=st.floats(0.0, math.log(150.0)))
def test_conservation_holds_for_sources_near_a_face(rho, x1, x2, log_horizon):
    res = conservation_check(fig15_network(rho=rho), (x1, x2), math.exp(log_horizon))
    assert abs(res["total"] - 1.0) < CONSERVATION_BOUND
    assert res["err"] <= QuadratureSpec().target


# a source far from face 1 at horizon 12.5: face 2's rule and the interior's
# ran from the axis, so their nodes missed the source's Gaussian; the check
# raised QuadratureError at (1e3, 2), having achieved only 1.71
@settings(deadline=None, max_examples=25)
@example(rho=0.3, far=1e3, near=2.0)
@given(rho=st.floats(-0.9, 0.9), far=st.floats(30.0, 1e4), near=st.floats(0.5, 5.0))
def test_conservation_holds_far_from_face_1(rho, far, near):
    res = conservation_check(fig15_network(rho=rho), (far, near), 12.5)
    assert abs(res["total"] - 1.0) < CONSERVATION_BOUND


def test_conservation_counts_the_flux_a_drift_carries_to_far_faces():
    # a source 108 from both faces over scaled horizon 127: the drift, -0.5
    # per unit time on each axis, carries its Gaussian to the faces.  A time
    # rule that skipped each s by the undrifted bound exp(-X'^2 / 2s) dropped
    # that flux and totalled 1 - 9.6e-5, with an error estimate of 3.8e-15
    res = conservation_check(fig15_network(rho=-0.548), (108.425, 108.133), 795.2635)
    assert abs(res["total"] - 1.0) < CONSERVATION_BOUND


def _m_tilde_eq(net):
    """Post-removal terminal levels, scaled, from their explicit formula
    L_i + L_ij - R_j L_ji: the oracle for Theta_i(0) and the shifted level."""
    l, m, r = net.external_liabilities, net.mutual, net.recoveries
    tilde_eq = np.array([l[0] + m[0, 1] - r[1] * m[1, 0], l[1] + m[1, 0] - r[0] * m[0, 1]])
    ctx = nondim_context(net)
    return ctx.zeta * np.log(tilde_eq / ctx.interior_levels)


def test_domain_endpoint_identities():
    # Theta_i(0) lands on the post-removal terminal level and
    # Theta_i(M_other) on the bank's own terminal level
    rng = np.random.default_rng(6)
    for _ in range(20):
        net = fig15_network(sigma=(rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)))
        net.mutual = np.array([[0.0, rng.uniform(1.0, 15.0)],
                               [rng.uniform(1.0, 15.0), 0.0]])
        net.external_liabilities = rng.uniform(40.0, 80.0, 2)
        from circuitlab.network import boundaries
        if np.any(boundaries(net).interior <= 0):
            continue
        dom = two_bank_domains(net)
        ctx = nondim_context(net)
        m_tilde_eq = _m_tilde_eq(net)
        assert dom.theta_curve(0, 0.0) == pytest.approx(m_tilde_eq[0], abs=1e-12)
        assert dom.theta_curve(1, 0.0) == pytest.approx(m_tilde_eq[1], abs=1e-12)
        assert dom.theta_curve(0, ctx.m_terminal[1]) == pytest.approx(
            ctx.m_terminal[0], abs=1e-12)
        assert dom.theta_curve(1, ctx.m_terminal[0]) == pytest.approx(
            ctx.m_terminal[1], abs=1e-12)
        # the post-removal terminal level IS the tilde boundary
        (_,), (m_eq_shift,) = shifted_levels(net, ctx, 1)
        assert m_eq_shift == pytest.approx(m_tilde_eq[0], abs=1e-12)


def test_joint_survival_limits():
    # short horizon, source deep inside both terminal levels: survival -> 1
    net = fig15_network()
    q_short, _ = joint_survival_Q(net, (4.5, 4.5), 0.05 / 0.16)
    assert q_short > 0.9999
    q, err = joint_survival_Q(net, (2.0, 2.0), 12.5)
    q1, _ = marginal_survival_Q1(net, (2.0, 2.0), 12.5)
    assert 0.0 < q < q1 < 1.0
    assert err < 1e-6


def test_q1_decoupling_oracle():
    net = fig15_network()
    net.mutual[:] = 0.0
    net.__post_init__()
    q1, _ = marginal_survival_Q1(net, (2.5, 2.5), 12.5)
    assert q1 == pytest.approx(q1_standalone(net, 2.5, 12.5), abs=1e-6)


def test_q1_below_standalone():
    net = fig15_network()
    for x1 in (1.5, 2.5, 3.5):
        for x2 in (1.5, 3.0):
            q1, _ = marginal_survival_Q1(
                net, (x1, x2), 12.5,
                QuadratureSpec(panels=5, order=12, time_panels=10))
            assert q1_standalone(net, x1, 12.5) - q1 >= -1e-9


# (Q, Q1) at the benchmark's source (2, 2) and horizon 12.5, on the graded
# rule at 32 panels and 96 time panels, from
#   PYTHONPATH=src python -c "
#   from circuitlab import network, wedge
#   spec = wedge.QuadratureSpec(panels=32, time_panels=96)
#   for rho in (0.0, -0.5, 0.3):
#       net = network.fig15_network(rho=rho)
#       print(rho, repr(wedge.joint_survival_Q(net, (2.0, 2.0), 12.5, spec)[0]),
#             repr(wedge.marginal_survival_Q1(net, (2.0, 2.0), 12.5, spec)[0]))"
DEEP = {0.0: (0.07888495185644993, 0.14987205517961302),
        -0.5: (0.029592672515301868, 0.14051341308012177),
        0.3: (0.11015245898125582, 0.15632480434732365)}


@pytest.mark.parametrize("rho", sorted(DEEP))
def test_survival_matches_deep_reference(rho):
    # the default rule measured within 9e-16 of the deep values; the uniform
    # rule it replaced was 6e-12 to 1.2e-11 off in Q1
    net = fig15_network(rho=rho)
    for entry, deep in zip((joint_survival_Q, marginal_survival_Q1), DEEP[rho]):
        value, err = entry(net, (2.0, 2.0), 12.5)
        assert value == pytest.approx(deep, abs=1e-12)
        assert err <= 1e-12


@pytest.mark.parametrize("rho, x_src, horizon", [
    (-0.5, (4.0, 1.0), 20.0),
    (-0.5, (4.0, 1.0), 40.0),
    (-0.5, (5.0, 1.5), 40.0),
    (-0.5, (2.0, 0.5), 40.0),
    (0.0, (3.0, 0.7), 30.0),
    (0.0, (2.0, 0.5), 20.0),
    (0.3, (3.0, 0.7), 40.0),
])
def test_q1_meets_its_target_near_bank_2s_boundary(rho, x_src, horizon):
    # sources off the benchmark's, where the flux layers are sharp: the
    # uniform rule missed the 1e-6 target at all but the first and third,
    # and a rule graded in time only (no face levels) at the first three
    net = fig15_network(rho=rho)
    q, _ = joint_survival_Q(net, x_src, horizon)
    q1, err = marginal_survival_Q1(net, x_src, horizon)
    assert 0.0 < q < q1 < 1.0
    assert err <= 1e-6


@pytest.mark.parametrize("rho, x_src, horizon, spec, deep", [
    # one time panel was compared with itself (1 + 1 // 2 = 1): err 1.7e-17,
    # 6.4e-13 off; deep from QuadratureSpec(panels=16, time_panels=48), which
    # 24 panels and 72 time panels meet within 1.4e-17
    (-0.5, (2.0, 0.5), 40.0, QuadratureSpec(4, 16, 1), 0.020109528662916914),
    # one panel left the face ranges' halves unrefined: err 5.6e-17, 2.7e-11 off
    (0.0, (2.0, 2.0), 12.5, QuadratureSpec(1, 16, 2), DEEP[0.0][1]),
])
def test_refined_error_covers_every_axis(rho, x_src, horizon, spec, deep):
    value, err = marginal_survival_Q1(fig15_network(rho=rho), x_src, horizon, spec)
    assert abs(value - deep) <= err


def test_refinement_keeps_the_default_nodes():
    # 4 -> 6 panels, and bank 2's lower face range 2 -> 3; a 2-panel spec
    # refines to 6, since 3, 4 and 5 keep that range at 2 panels
    assert (wedge._finer(4), wedge._lower_face_panels(4), wedge._lower_face_panels(6)) == (6, 2, 3)
    assert wedge._finer(2) == 6


@settings(deadline=None, max_examples=200)
@given(t_bar=st.floats(1e-3, 1e3), panels=st.integers(1, 8),
       lo=st.integers(0, wedge.GRADED_LEVELS), hi=st.integers(0, wedge.GRADED_LEVELS))
@example(t_bar=2.0, panels=2, lo=wedge.TIME_LEVELS, hi=wedge.TIME_LEVELS)
def test_graded_rule_partitions_its_interval(t_bar, panels, lo, hi):
    b = math.sqrt(t_bar)
    edges = wedge._graded_edges(0.0, b, panels, lo, hi)
    assert edges[0] == 0.0 and edges[-1] == b
    assert np.all(np.diff(edges) > 0.0)
    # the uniform panels plus levels + 1 panels per graded end
    assert edges.size - 1 == panels + (lo + 1 if lo else 0) + (hi + 1 if hi else 0)
    _, weights = wedge._gl_on_edges(edges, 10)
    assert np.all(weights > 0.0)
    assert abs(weights.sum() - b) <= 1e-14 * b


@pytest.mark.parametrize("field, value", [
    ("panels", 0), ("panels", -2), ("panels", 2.5),
    ("order", 0), ("order", 16.0),
    ("time_panels", 0), ("time_panels", "2"),
    ("target", 0.0), ("target", -1e-6), ("target", math.nan), ("target", math.inf),
])
def test_quadrature_spec_rejects_a_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        QuadratureSpec(**{field: value})


def test_quadrature_spec_is_frozen():
    spec = QuadratureSpec()
    with pytest.raises(AttributeError):
        spec.panels = 8


def test_missed_target_raises_quadrature_error():
    spec = QuadratureSpec(panels=2, order=6, time_panels=2, target=1e-14)
    with pytest.raises(QuadratureError, match="marginal-survival quadrature achieved only"):
        marginal_survival_Q1(fig15_network(), (2.0, 2.0), 12.5, spec)
    assert issubclass(QuadratureError, RuntimeError)


# the Fig 15 network as rho -> -1 (the wedge closes): the drift tilt's
# exponential once overflowed where the Gaussian's underflowed, which gave
# (inf, nan) at -0.999, "achieved only inf" at -0.9999 and a silent
# (0.0, 4e-48) at -0.99999.  Past -0.995 the rule misses its target by name
@pytest.mark.parametrize("rho, resolved", [
    (-0.99, True), (-0.995, True), (-0.999, False), (-0.9999, False), (-0.99999, False)])
def test_q1_near_perfect_anticorrelation_is_finite_or_named(rho, resolved):
    net = fig15_network(rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)     # no overflow, no NaN
        if not resolved:
            with pytest.raises(QuadratureError, match="marginal-survival quadrature"):
                marginal_survival_Q1(net, (2.0, 2.0), 12.5)
            return
        q1, err = marginal_survival_Q1(net, (2.0, 2.0), 12.5)
    assert math.isfinite(err) and err <= QuadratureSpec().target
    # Q1 levels off as the wedge closes: 0.13100 at -0.99, 0.13113 at -0.995
    assert 0.1305 < q1 < 0.1315


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0, 0.0])
def test_survival_entry_points_reject_a_bad_horizon(horizon):
    net = fig15_network()
    with pytest.raises(ValueError, match="horizon"):
        nondim_context(net).scaled_time(horizon)
    for entry in (joint_survival_Q, marginal_survival_Q1, conservation_check):
        with pytest.raises(ValueError, match="horizon"):
            entry(net, (2.0, 2.0), horizon)
    with pytest.raises(ValueError, match="horizon"):
        q1_standalone(net, 2.0, horizon)
    with pytest.raises(ValueError, match="tau"):
        survival_1d(2.0, -0.1, 0.0, 0.5, horizon)


TWO_BANK_ENTRY_POINTS = {
    "joint_survival_Q": lambda net: joint_survival_Q(net, (2.0, 2.0), 1.0),
    "marginal_survival_Q1": lambda net: marginal_survival_Q1(net, (2.0, 2.0), 1.0),
    "q1_standalone": lambda net: q1_standalone(net, 2.0, 1.0),
    "conservation_check": lambda net: conservation_check(net, (2.0, 2.0), 1.0),
    "two_bank_survival_grid": lambda net: two_bank_survival_grid(net, 1.0, 0.01, 4),
    "two_bank_domains": two_bank_domains,
}


@pytest.mark.parametrize("entry", sorted(TWO_BANK_ENTRY_POINTS))
def test_two_bank_entry_points_reject_jumps_and_other_bank_counts(entry):
    # one gate: nondim_context rejects jumps, two_bank_domains other bank counts
    call = TWO_BANK_ENTRY_POINTS[entry]
    net = fig15_network()
    net.jumps = JumpSpec(2, {frozenset([0]): 0.1}, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="diffusion-only"):
        call(net)
    three = BankNetwork(external_assets=np.full(3, 60.0),
                        external_liabilities=np.full(3, 50.0),
                        mutual=np.full((3, 3), 5.0) - 5.0 * np.eye(3),
                        recoveries=np.full(3, 0.4), sigma=np.full(3, 0.4))
    with pytest.raises(ValueError, match="need two banks, got 3"):
        call(three)


def test_wedge_context_rejects_bad_rho():
    with pytest.raises(ValueError, match="correlation"):
        WedgeContext.build(1.0, [0.0, 0.0])


def test_boundary_flux_rejects_unknown_face():
    ctx = WedgeContext.build(0.3, [-0.5, -0.5])
    for face in (0, 3, -2):
        with pytest.raises(ValueError, match="face"):
            boundary_flux(ctx, 1.0, np.array([1.0]), (1.3, 2.1), face=face)


def test_boundary_flux_rejects_source_off_the_interior():
    ctx = WedgeContext.build(0.3, [-0.5, -0.5])
    x = np.array([1.0])
    for src in ((0.0, 1.5), (1.5, 0.0), (-0.2, 1.0), (math.nan, 1.5), (1.5, math.inf)):
        for face in (1, 2):
            with pytest.raises(ValueError, match="interior"):
                boundary_flux(ctx, 1.0, x, src, face=face)
        with pytest.raises(ValueError, match="interior"):
            wedge_green(ctx, 1.0, x, x, src)
    for t in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="positive"):
            boundary_flux(ctx, t, x, (1.5, 1.5))
        with pytest.raises(ValueError, match="positive"):
            wedge_green(ctx, t, x, x, (1.5, 1.5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="evaluation points"):
            wedge_green(ctx, 1.0, [bad, 1.0], [1.0, bad], (2, 2))
        for face in (1, 2):
            with pytest.raises(ValueError, match="evaluation points"):
                boundary_flux(ctx, 1.0, [1.0, bad], (1.5, 1.5), face=face)
    net = fig15_network()
    for src in ((math.nan, 2.0), (2.0, math.inf), (2.0, math.nan)):
        for entry in (joint_survival_Q, marginal_survival_Q1, conservation_check):
            with pytest.raises(ValueError, match="interior"):
                entry(net, src, 12.5)
    for x1 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="source point"):
            q1_standalone(net, x1, 12.5)


# ---------------------------------------------------------------------------
# the per-point truncated series against an untruncated sum

TOL = 1e-14            # wedge.SERIES_TOL, the truncation tolerance of the series
REF_ORDERS = 250       # fixed order count of the untruncated reference
SERIES_MARGIN = 3.0    # truncation error over tol * largest partial sum (measured 0.75)
IMAGE_MARGIN = 20.0    # image sum off the deep reference over tol * its sum of |terms|
                       # (measured 6.6, near z = 20: scipy's ive, not the image sum)


def _orders(ctx, z, deep, pre, z_min):
    """Order rows and their ive(nu_n, z) rows: REF_ORDERS orders through
    iv_scaled, or with `deep` scipy.special.ive over the orders up to
    nu = sqrt(100 max z) + 10, past which the envelope is below e^{-50}.
    The REF_ORDERS rows hold values only at the live points below z_min,
    the only ones _check_truncation reads, and NaN elsewhere: at a short
    horizon z reaches the thousands, where 250 orders of the series cost
    ten times as much as at z <= 15."""
    if not deep:
        nus = np.array([ctx.order(n) for n in range(1, REF_ORDERS + 1)])[:, None]
        envs = np.full((REF_ORDERS, z.size), np.nan)
        near = (pre > 1e-30) & (z < z_min)
        if np.any(near):
            envs[:, near] = [iv_scaled(nu, z[near]) for nu in nus[:, 0]]
        return nus, envs
    count = math.ceil((math.sqrt(100.0 * np.max(z)) + 10.0) / ctx.order(1))
    nus = np.array([ctx.order(n) for n in range(1, count + 1)])[:, None]
    return nus, ive(nus, z)


def _green_reference(ctx, t, x1, x2, xs, deep=False):
    """Prefactor, z, per-order (term, envelope) rows of the density series,
    and the z from which its points take the image sum."""
    r, phi = ctx.polar(x1, x2)
    r_src, phi_src = ctx.polar(*xs)
    pre = (np.exp(-0.5 * ctx.theta_dot_xi * t + ctx.theta[0] * (x1 - xs[0])
                  + ctx.theta[1] * (x2 - xs[1]))
           * 2.0 / (ctx.rho_bar * ctx.varpi * t) * np.exp(-((r - r_src) ** 2) / (2.0 * t)))
    z = r * r_src / t
    z_min = wedge._image_min_z(ctx, slope=False)
    nus, envs = _orders(ctx, z, deep, pre, z_min)
    return pre, z, envs * np.sin(nus * phi) * np.sin(nus * phi_src), envs, z_min


def _flux_reference(ctx, t, coord, xs, face, deep=False):
    """The same rows for the flux series through `face`."""
    r_src, phi_src = ctx.polar(*xs)
    drift = ctx.theta[0] if face == 2 else ctx.theta[1]
    pre = (np.exp(-0.5 * ctx.theta_dot_xi * t + drift * coord - ctx.theta @ np.asarray(xs))
           / (ctx.varpi * t * coord) * np.exp(-((coord / ctx.rho_bar - r_src) ** 2) / (2.0 * t)))
    z = coord * r_src / (ctx.rho_bar * t)
    z_min = wedge._image_min_z(ctx, slope=True)
    nus, envs = _orders(ctx, z, deep, pre, z_min)
    envs = nus * envs
    signs = np.where((face == 2) & (np.arange(1, len(nus) + 1) % 2 == 0), -1.0, 1.0)
    return pre, z, envs * np.sin(nus * phi_src) * signs[:, None], envs, z_min


def _check_truncation(out, pre, z, terms, envs, z_min, seen):
    """The live points below z_min take the series; `seen` holds the
    arguments iv_scaled received, one array per order."""
    assert np.all(out[pre <= 1e-30] == 0.0)
    live = (pre > 1e-30) & (z < z_min)
    if not np.any(live):
        assert not seen
        return
    assert len(seen) < REF_ORDERS - 10
    assert np.array_equal(seen[0], z[live])
    partial = np.cumsum(terms[:, live], axis=0)
    envs = envs[:, live]
    # last order each point took part in; the live set only ever shrinks
    last = np.array([sum(np.isin(v, calls) for calls in seen) for v in z[live]])
    assert np.all(last >= 2)
    frozen = partial[np.minimum(np.arange(REF_ORDERS)[:, None], last - 1), np.arange(last.size)]
    scale = np.maximum.accumulate(np.max(np.abs(frozen), axis=1))
    # every dropped point's last two envelopes were under the threshold
    for k in (last - 1, last - 2):
        assert np.all(envs[k, np.arange(last.size)] <= TOL * scale[k] * (1.0 + 1e-9))
    # and what it dropped is within the margin of that threshold
    err = np.abs(out[live] - pre[live] * partial[-1])
    assert np.all(err <= SERIES_MARGIN * TOL * pre[live] * scale[-1] + 1e-300)


def _check_image_sum(out, pre, z, terms, envs, z_min):
    """The live points at or above z_min take the image sum: it is within
    IMAGE_MARGIN * TOL of a deep reference, relative to the sum of the
    reference's |terms|, which scales its rounding."""
    far = (pre > 1e-30) & (z >= z_min)
    size = np.abs(terms[:, far]).sum(axis=0)
    assert np.all(envs[-1, far] <= 1e-3 * TOL * size)
    err = np.abs(out[far] - pre[far] * terms[:, far].sum(axis=0))
    assert np.all(err <= IMAGE_MARGIN * TOL * pre[far] * size)


def _recording_iv(monkeypatch):
    seen = []

    def recording(nu, z):
        seen.append(np.array(z, copy=True))
        return iv_scaled(nu, z)

    monkeypatch.setattr(wedge, "iv_scaled", recording)
    return seen


coords = st.floats(0.01, 6.0)


# at rho = 0 and -0.5 (alpha = 2 and 3) the flux points with 2 <= z < 20
# take the image sum: at t = 0.5 and these sources the flux z run from 1.0
# and 1.7 to 28 and 46, and the density z lie on both sides of 20
integer_alpha_points = [(0.2, 1.0), (1.0, 2.0), (2.0, 0.5), (3.0, 3.0), (5.5, 5.0)]


@settings(deadline=None, max_examples=25)
@given(rho=st.floats(-0.9, 0.8), log_t=st.floats(math.log(0.01), math.log(12.0)),
       xi=st.tuples(st.floats(-1.0, 0.5), st.floats(-1.0, 0.5)),
       src=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
       points=st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       face=st.sampled_from([1, 2]))
@example(rho=0.0, log_t=math.log(0.5), xi=(-0.5, -0.25), src=(2.0, 1.5),
         points=integer_alpha_points, face=2)
@example(rho=-0.5, log_t=math.log(0.5), xi=(-0.5, -0.25), src=(1.0, 2.5),
         points=integer_alpha_points, face=1)
def test_truncated_series_match_untruncated_sum(rho, log_t, xi, src, points, face):
    ctx = WedgeContext.build(rho, xi)
    t = math.exp(log_t)
    x1, x2 = np.array(points).T
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_iv(mp)
        green = wedge_green(ctx, t, x1, x2, src)
        _check_truncation(green, *_green_reference(ctx, t, x1, x2, src), seen)
        _check_image_sum(green, *_green_reference(ctx, t, x1, x2, src, deep=True))
        seen.clear()
        flux = boundary_flux(ctx, t, x1, src, face=face)
        _check_truncation(flux, *_flux_reference(ctx, t, x1, src, face), seen)
        _check_image_sum(flux, *_flux_reference(ctx, t, x1, src, face, deep=True))


@pytest.mark.parametrize("rho, flux_series", [(0.0, False), (-0.5, False), (0.3, True)])
def test_flux_takes_the_image_sum_from_z_2_at_integer_alpha(rho, flux_series):
    # alpha = 2 and 3 send every flux point with z >= FLUX_IMAGE_MIN_Z to the
    # image sum; the density keeps the series below IMAGE_MIN_Z at every
    # alpha, and at rho = 0.3 so does the flux
    ctx = WedgeContext.build(rho, [-0.5, -0.25])
    xs, t = (2.0, 1.5), 0.5
    r_src, _ = ctx.polar(*xs)
    z = np.array([2.001, 3.0, 5.0, 10.0, 19.9])
    coord = z * ctx.rho_bar * t / r_src
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_iv(mp)
        for face in (1, 2):
            flux = boundary_flux(ctx, t, coord, xs, face=face)
            assert np.all(flux != 0.0)
            assert bool(seen) is flux_series
            seen.clear()
        wedge_green(ctx, t, 0.5 * coord, 0.5 * coord, xs)
        r, _ = ctx.polar(0.5 * coord, 0.5 * coord)
        assert np.max(r * r_src / t) < wedge.IMAGE_MIN_Z
        assert np.array_equal(seen[0], r * r_src / t)


def _mp_series(ctx, z, phi, phi_src):
    """The density series and both faces' flux series at one point, summed
    at 40 digits over the orders up to nu = sqrt(100 z) + 10, past which
    the envelope is below e^{-50}."""
    with mpmath.workdps(40):
        alpha = mpmath.pi / mpmath.mpf(ctx.varpi)
        z_mp = mpmath.mpf(z)
        density = face1 = face2 = mpmath.mpf(0)
        for n in range(1, math.ceil((math.sqrt(100.0 * z) + 10.0) / float(alpha)) + 1):
            nu = n * alpha
            term = mpmath.besseli(nu, z_mp) * mpmath.exp(-z_mp) * mpmath.sin(nu * phi_src)
            density += term * mpmath.sin(nu * phi)
            face1 += nu * term
            face2 += (-1) ** (n + 1) * nu * term
        return float(density), float(face1), float(face2)


def _check_image_sum_exact(ctx, z, phi, phi_src, diffraction):
    """_image_sum against the 40-digit series: the density within the
    rounding of its image angles, about one ulp of pi times the density's
    slope sqrt(z) / (4 alpha), plus the omitted diffraction bound; the flux
    within the same rounding times its slope z / (4 alpha)."""
    zs = np.array([z])
    got = (wedge._image_sum(ctx, zs, np.array([phi]), phi_src)[0],
           wedge._image_sum(ctx, zs, 0.0, phi_src, slope=True)[0],
           -wedge._image_sum(ctx, zs, ctx.varpi, phi_src, slope=True)[0])
    density, face1, face2 = _mp_series(ctx, z, phi, phi_src)
    peak = ctx.varpi / (4.0 * math.pi)       # 1 / (4 alpha)
    rounding = 2e-15                          # measured at most 5.8e-16
    assert abs(got[0] - density) <= rounding * peak * max(1.0, math.sqrt(z)) + diffraction
    for value, ref in zip(got[1:], (face1, face2)):
        assert abs(value - ref) <= rounding * peak * max(1.0, z)


angle_share = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(deadline=None, max_examples=25)
@given(rho=st.floats(-0.9, 0.8), phi=angle_share, phi_src=angle_share, z=st.floats(20.0, 300.0))
def test_image_sum_matches_a_40_digit_series(rho, phi, phi_src, z):
    ctx = WedgeContext.build(rho, [0.0, 0.0])
    alpha = math.pi / ctx.varpi
    _check_image_sum_exact(ctx, z, phi * ctx.varpi, phi_src * ctx.varpi,
                           diffraction=math.exp(-2.0 * z) / (2.0 * alpha))


@settings(deadline=None, max_examples=25)
@given(rho=st.sampled_from([0.0, -0.5]), phi=angle_share, phi_src=angle_share,
       z=st.floats(0.01, 20.0))
# shares summing to 1 put an image on the seam psi = +-pi; at rho = -0.5
# rounding leaves 3 varpi just above pi, outside the window on both sides
@example(rho=-0.5, phi=0.25, phi_src=0.75, z=0.01)
@example(rho=-0.5, phi=0.5, phi_src=0.5, z=0.01)
def test_image_sum_is_exact_at_integer_alpha(rho, phi, phi_src, z):
    # alpha = 2 and 3: the diffraction integral vanishes at every z
    ctx = WedgeContext.build(rho, [0.0, 0.0])
    _check_image_sum_exact(ctx, z, phi * ctx.varpi, phi_src * ctx.varpi, diffraction=0.0)


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def test_kernels_leave_read_only_inputs_unchanged():
    # the series and image kernels work in place on their own buffers only:
    # every input here is read-only, so a write to one would raise
    ctx = WedgeContext.build(0.3, [-0.5, -0.5])
    src = _read_only([2.0, 1.5])
    x1 = _read_only([0.3, 1.0, 2.0, 4.0, 9.0])
    x2 = _read_only([0.5, 2.0, 1.5, 3.0, 8.0])
    # z = r r'/t spans the series (z < 20) and the image sum at t = 0.05;
    # iv_scaled takes the read-only view of those within SERIES_MAX_Z
    z = _read_only([0.0, 0.4, 2.5, 19.0, 24.0, 150.0, 900.0])
    phi = _read_only(np.linspace(0.1, 0.9, z.size) * ctx.varpi)
    t = _read_only([0.05, 0.05, 0.2, 1.0, 3.0])
    inputs = (src, x1, x2, z, phi, t)
    before = [a.copy() for a in inputs]
    iv_scaled(2.5, z[:5])
    for tt in (0.05, 3.0):
        wedge_green(ctx, tt, x1, x2, src)
    for face in (1, 2):
        boundary_flux(ctx, 0.05, x1, src, face=face)
        boundary_flux(ctx, t, x1, src, face=face)
    wedge._image_sum(ctx, z[1:], phi[1:], 0.4)
    wedge._image_sum(ctx, z[1:], 0.0, 0.4, slope=True)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def test_too_few_orders_raise_series_error(monkeypatch):
    ctx = WedgeContext.build(0.3, [-0.5, -0.5])
    x = np.array([1.0, 2.0, 3.0])
    monkeypatch.setattr(wedge, "SERIES_ORDERS", 3)
    with pytest.raises(SeriesError, match="not converged after 3 terms"):
        wedge_green(ctx, 0.5, x, x[::-1], (2.0, 2.0))
    with pytest.raises(SeriesError, match="not converged after 3 terms"):
        boundary_flux(ctx, 0.5, x, (2.0, 2.0), face=2)
    monkeypatch.setattr(wedge, "SERIES_ORDERS", 0)
    with pytest.raises(SeriesError, match="not converged after 0 terms"):
        wedge_green(ctx, 0.5, x, x[::-1], (2.0, 2.0))


def test_points_above_z_700_take_the_image_sum_on_their_own():
    # z = 13,000-14,400 at a short horizon near the source, far above
    # IMAGE_MIN_Z: every point takes the image sum, which is elementwise, so
    # a batch value equals the point's value on its own.  A 3,000-order
    # scipy.special.ive sum gives 0.0557823639382926 for the fourth point
    # and 5.8e-18 for the third.
    ctx = WedgeContext.build(-0.8523537982945857, [-0.5905236867859487, -0.7506776087696074])
    x1 = np.array([5.63630521036327, 3.483308969407087, 4.928169829303059, 4.256132040459786])
    x2 = np.array([1.7597576333064393, 3.9195319732975844, 1.7426479799339254, 2.79081821719066])
    t, xs = 0.012311190845945527, (3.8762971805736552, 3.122683451170018)
    g = wedge_green(ctx, t, x1, x2, xs)
    alone = np.array([wedge_green(ctx, t, x1[i:i + 1], x2[i:i + 1], xs)[0] for i in range(4)])
    pre, z, terms, *_ = _green_reference(ctx, t, x1, x2, xs, deep=True)
    assert np.all(z > 700.0)
    scale = np.max(np.abs(np.cumsum(terms, axis=0)))
    assert np.all(np.abs(g - alone) <= SERIES_MARGIN * TOL * pre * scale)
    assert g[3] == pytest.approx(0.0557823639382926, rel=1e-12)
    assert abs(g[2]) <= 1e-15


def test_q1_series_work_drops_converged_points(monkeypatch):
    # Fig 15 at rho = 0.3 with a small rule.  The points at z >= IMAGE_MIN_Z
    # take the image sum; the rest send 969,197 points to iv_scaled in 152
    # calls, where truncating over their whole batch would send 1,510,523.
    # The bound is half of the 5,150,138 that whole-batch truncation sends
    # when every live point takes the series.  The value is the deep one of
    # test_survival_matches_deep_reference, which this rule meets within
    # 1.5e-14.
    counts = {"calls": 0, "points": 0}

    def counting(nu, z):
        counts["calls"] += 1
        counts["points"] += np.size(z)
        return iv_scaled(nu, z)

    monkeypatch.setattr(wedge, "iv_scaled", counting)
    spec = QuadratureSpec(panels=4, order=8, time_panels=6, target=1.0)
    q1, _ = marginal_survival_Q1(fig15_network(rho=0.3), (2.0, 2.0), 12.5, spec)
    assert q1 == pytest.approx(DEEP[0.3][1], abs=1e-12)
    assert counts["points"] < 5_150_138 // 2
    assert counts["calls"] < 250


def test_gauss_legendre_rules_built_once_and_read_only(monkeypatch):
    builds = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        builds.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    wedge._gl_rule.cache_clear()
    spec = QuadratureSpec(panels=4, order=8, time_panels=6, target=1.0)
    marginal_survival_Q1(fig15_network(rho=0.3), (2.0, 2.0), 12.5, spec)
    assert sorted(builds) == [8, 10]

    nodes, weights = wedge._gl_rule(8)
    fresh_nodes, fresh_weights = leggauss(8)
    assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert wedge._gl_rule(8)[0] is nodes
