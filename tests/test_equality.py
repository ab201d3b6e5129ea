"""Every dataclass that holds arrays compares by identity.

A generated field-by-field `__eq__` compares arrays elementwise and then asks
the result for its truth value, which raises; with `eq=False` a value equals
itself and nothing else, and `==` returns a bool."""

import copy

import numpy as np

from circuitlab import balance, dividend, goodwin, keen, mmc, network, wedge
from circuitlab.rng import JumpSpec, RngStream

FLOW_PARAMS = balance.FlowParams(lam=0.2, mu=0.25, nu=0.05, xi=0.03, alpha=0.15, beta=0.01,
                                 r=0.05, zeta=0.02, sigma=0.0, discount=0.3)
FLOW_START = balance.FlowState(x=100.0, i=20.0, c=10.0, d=90.0, y=25.0, e=15.0)


def _instances():
    net = network.fig15_network(rho=0.3)
    jump_net = network.fig15_network(rho=0.3)
    jump_net.jumps = JumpSpec.systemic_idiosyncratic(
        0.4, np.array([0.3, 0.3]), np.array([1.5, 1.5]))
    rec = network.simulate_paths(net, 1.0, 0.01, 8, stream=RngStream(1))
    traj = balance.evolve(FLOW_START, FLOW_PARAMS, balance.Controls(), 0.1, 0.01)
    return [
        net, jump_net.jumps, net.corr, rec,
        network.boundaries(net), network.clearing_vector(net, net.external_assets),
        network.nondim_context(net), network.two_bank_domains(net),
        network.survival_probabilities(rec),
        network.two_bank_survival_grid(net, 1.0, 0.01, 8, stream=RngStream(2)),
        network._survivors({}, net, np.ones(2, dtype=bool)),
        goodwin.simulate(goodwin.GoodwinState(0.75, 0.8), goodwin.FIG3_PARAMS, 0.1, 0.01),
        keen.simulate(keen.KeenState(0.75, 0.8, 0.1), keen.FIG6_PARAMS, 0.1, 0.01),
        mmc.simulate(mmc.FIG8_STATE, mmc.FIG8_PARAMS, 0.1, 0.01),
        wedge.WedgeContext.build(0.3, [-0.5, -0.5]),
        dividend.stationary_barrier(dividend.FIG13_PARAMS),
        dividend.solve_variational(dividend.FIG13_PARAMS, horizon=0.05, e_max=2.0,
                                   n_grid=50, dtau=1e-2),
        traj, balance.constraints_report(traj, balance.RegWeights(kappa=0.1)),
    ]


def test_array_holding_dataclasses_compare_by_identity():
    # `net == copy.deepcopy(net)` once raised "truth value ... ambiguous"
    for obj in _instances():
        other = copy.deepcopy(obj)
        assert (obj == obj) is True, type(obj).__name__
        assert (obj == other) is False, type(obj).__name__
        assert (obj != other) is True, type(obj).__name__
