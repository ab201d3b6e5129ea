"""The paper's figure scenarios as benchmark workloads, with their accuracy gates.

Every workload is a list of `Call`s: one call into circuitlab's public API
each, built from the workload seed.  The calls come in four groups of
figure scenarios: `circuit_sde` and `network_mc` make up the `monte_carlo`
workload, `wedge_quad` and `bank_control` the `deterministic` one.  Monte Carlo calls receive only an
`RngStream` whose master seed is derived from (workload seed, call index),
so the same seed always gives the same inputs and a different seed gives
different ones.  Deterministic calls (quadrature, PDE, grid search) ignore
the seed.

Each call has a check that runs after the timed pass.  It compares the
output against independent oracles and against references recorded at the
commit that introduced the benchmark (`references.json`), with the
tolerances fixed below.  A check returns failure messages and a dict of
readings; the readings are what `record.py` stores as references.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from circuitlab import balance, dividend, goodwin, keen, mmc, network, wedge
from circuitlab.rng import JumpSpec, RngStream

WORKLOADS = ("monte_carlo", "deterministic")
REFERENCES = Path(__file__).with_name("references.json")

# fingerprints (exact seeded outputs) are recorded for this workload seed
REFERENCE_SEED = 1
# Fig 8 ensemble batches per pass and paths per batch, each batch seeded from
# the workload seed; about 3 in 4 two-path batches stall at the Fig 8 horizon
ENSEMBLE_BATCHES = 2
ENSEMBLE_PATHS = 2

# tolerances of the accuracy gate
TOL_FINGERPRINT = 1e-9      # relative, seeded outputs at REFERENCE_SEED
TOL_STAT_SE = 5.0           # Monte Carlo means, in combined standard errors
TOL_MMC_IDENTITY = 1e-8     # K_b identity residual over the largest stock
TOL_MMC_DET = 1e-9          # relative, deterministic Fig 8 terminal stocks
TOL_WEDGE_REF = 1e-8        # absolute, Q and Q1 against recorded values
TOL_WEDGE_ORACLE = 1e-6     # absolute, closed-form oracles and conservation
TOL_WEDGE_ERR = 1e-6        # quadrature error estimate
TOL_DIV_REF = 1e-10         # absolute, value-function samples
TOL_DIV_BARRIER = 1e-10     # stationary boundary conditions
TOL_DIV_SLOPE = 1e-8        # obstacle V_E >= 1
TOL_BAL_REF = 1e-10         # relative, best cash flow
TOL_BAL_IDENTITY = 1e-10    # balance-sheet consistency over total assets

WEDGE_X = (2.0, 2.0)
WEDGE_HORIZON = 12.5
WEDGE_RHOS = (0.0, -0.5, 0.3)
NETWORK_DT = 0.02
GRID_AXIS = np.array([1.0, 1.5, 2.0, 2.5, 3.0])


@dataclass
class Call:
    """One timed call into circuitlab and the check of its output."""

    scenario: str                       # per-scenario metric it is timed under
    label: str                          # stable name, the key of its references
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]
    path_steps: int = 0                 # path-steps done when the call completes
    stream_seed: int | None = None      # master seed of its RngStream, if any
    # share of the call's full work done by its last run, when it can stop early
    progress: Callable[[], float | None] | None = None


@dataclass
class Oracle:
    """A once-per-run module check whose oracle needs its own computation."""

    label: str
    run: Callable[[], tuple[list[str], dict]]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    warmup: list[Callable[[], object]]
    oracles: list[Oracle]


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {"exact": {}, "stats": {}, "fingerprint": {}}


def master_seed(seed: int, *index: int) -> int:
    """Master seed of one call's stream, derived from the workload seed."""
    ss = np.random.SeedSequence([seed, *index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --------------------------------------------------------------------------
# reference comparison helpers


class Gate:
    """Collects failures and readings for one call's check."""

    def __init__(self, label: str, refs: dict, seed: int):
        self.label = label
        self.failures: list[str] = []
        self.readings: dict = {"exact": {}, "stats": {}, "fingerprint": {}}
        self._exact = refs.get("exact", {}).get(label, {})
        self._stats = refs.get("stats", {}).get(label, {})
        self._at_ref_seed = seed == refs.get("seed", REFERENCE_SEED)
        self._finger = refs.get("fingerprint", {}).get(label, {}) if self._at_ref_seed else {}
        # with references loaded, a reading that has none is a failure, so a
        # renamed scenario cannot slip past the comparison
        self._strict = bool(refs.get("exact"))

    def _reference(self, table: dict, key: str):
        if key not in table:
            self.require(not self._strict, f"no reference recorded for {key}")
            return None
        return table[key]

    def require(self, ok, message: str) -> None:
        if not bool(ok):
            self.failures.append(f"{self.label}: {message}")

    def exact(self, key: str, value: float, tol: float, relative: bool = False) -> None:
        self.readings["exact"][key] = float(value)
        ref = self._reference(self._exact, key)
        if ref is not None:
            scale = max(abs(ref), 1e-300) if relative else 1.0
            err = abs(value - ref) / scale
            self.require(err <= tol, f"{key}={value!r} moved from reference "
                         f"{ref!r} ({'rel' if relative else 'abs'} {err:.2e} > {tol:.0e})")

    def stat(self, key: str, mean: float, se: float) -> None:
        self.readings["stats"][key] = [float(mean), float(se)]
        ref = self._reference(self._stats, key)
        if ref is not None:
            ref_mean, ref_se = ref
            band = TOL_STAT_SE * math.hypot(se, ref_se)
            self.require(abs(mean - ref_mean) <= band + 1e-12,
                         f"{key} mean {mean:.6g} is {abs(mean - ref_mean):.3g} from "
                         f"reference {ref_mean:.6g} (allowed {band:.3g})")

    def fingerprint(self, key: str, value: float) -> None:
        self.readings["fingerprint"][key] = float(value)
        ref = self._reference(self._finger, key) if self._at_ref_seed else None
        if ref is not None:
            err = abs(value - ref) / max(abs(ref), 1e-300)
            self.require(err <= TOL_FINGERPRINT,
                         f"seeded {key}={value!r} differs from reference {ref!r}")

    def result(self, **extra) -> tuple[list[str], dict]:
        self.readings.update(extra)
        return self.failures, self.readings


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


# --------------------------------------------------------------------------
# circuit_sde: per-step SDE kernels at vector width 1 and wide, upsilon solve

MMC_ENSEMBLE_PARAMS = replace(mmc.FIG8_PARAMS, sigma_c=0.04, sigma_k=0.02,
                              sigma_s=0.01, sigma_lambda=0.01)


def _check_unit_square(g: Gate, name: str, values: np.ndarray) -> None:
    g.require(np.all(np.isfinite(values)), f"{name} has non-finite entries")
    g.require(np.all((values > 0.0) & (values < 1.0)), f"{name} left (0, 1)")


def _goodwin_check(refs, seed):
    def check(res: goodwin.GoodwinResult):
        g = Gate("goodwin_fig3", refs, seed)
        s_t, l_t = res.s_w[-1], res.lambda_w[-1]
        _check_unit_square(g, "s_w", res.s_w)
        _check_unit_square(g, "lambda_w", res.lambda_w)
        g.require(res.total_steps == 256 * 10_000, "wrong step count")
        g.stat("s_w_T", *_mean_se(s_t))
        g.stat("lambda_w_T", *_mean_se(l_t))
        g.fingerprint("sum_s_w_T", s_t.sum())
        g.fingerprint("sum_lambda_w_T", l_t.sum())
        return g.result(clamp_events=res.clamp_events)
    return check


def _keen_check(refs, seed):
    def check(res: keen.KeenResult):
        g = Gate("keen_fig6", refs, seed)
        _check_unit_square(g, "s_w", res.s_w)
        _check_unit_square(g, "lambda_w", res.lambda_w)
        g.require(np.all(np.isfinite(res.gamma_f)), "gamma_f has non-finite entries")
        g.stat("s_w_T", *_mean_se(res.s_w[-1]))
        g.stat("lambda_w_T", *_mean_se(res.lambda_w[-1]))
        g.stat("gamma_f_T", *_mean_se(res.gamma_f[-1]))
        g.fingerprint("sum_gamma_f_T", res.gamma_f[-1].sum())
        return g.result(clamp_events=res.clamp_events, minsky_paths=res.minsky_paths)
    return check


def _mmc_readings(res: mmc.MmcResult) -> dict:
    return {"max_identity_residual": res.max_identity_residual,
            "credit_crunch_steps": res.credit_crunch_steps,
            "floor_hits": res.floor_hits}


def _mmc_identity(g: Gate, res: mmc.MmcResult) -> None:
    stocks = np.concatenate([res.series[k].ravel()
                             for k in ("d_r", "l_r", "d_f", "l_f", "k_f")])
    g.require(res.max_identity_residual < TOL_MMC_IDENTITY * stocks.max(),
              f"identity residual {res.max_identity_residual:.3e} exceeds "
              f"{TOL_MMC_IDENTITY:.0e} of the largest stock {stocks.max():.3g}")


def _mmc_det_check(refs, seed):
    def check(res: mmc.MmcResult):
        g = Gate("mmc_fig8", refs, seed)
        _mmc_identity(g, res)
        g.require(res.credit_crunch_steps == 0 and res.floor_hits == 0,
                  "Fig 8 run hit a credit crunch or a stock floor")
        for i in range(len(res.t)):
            st = res.state_at(i)
            d = mmc.derived_quantities(st, mmc.FIG8_PARAMS)
            g.require(abs(d.y_f - (d.c_w + st.c_r + d.i_f)) / d.y_f < 1e-12,
                      f"production identity broken at t={res.t[i]}")
        for k in mmc.STOCK_NAMES:
            g.exact(f"{k}_T", res.series[k][-1, 0], TOL_MMC_DET, relative=True)
        return g.result(**_mmc_readings(res))
    return check


def _mmc_batch_check(refs, seed, b):
    def check(res: mmc.MmcResult):
        g = Gate(f"mmc_ensemble_{b}", refs, seed)
        for k in ("d_r", "l_r", "d_f", "l_f", "k_f"):
            g.require(np.all(res.series[k] >= 0.0), f"{k} went negative")
        g.require(np.all(res.series["c_r"] > 0.0), "C_r left (0, inf)")
        _check_unit_square(g, "s_w", res.series["s_w"])
        _check_unit_square(g, "lambda_w", res.series["lambda_w"])
        if res.credit_crunch_steps == 0:
            _mmc_identity(g, res)
        g.fingerprint("sum_c_r_T", res.series["c_r"][-1].sum())
        g.fingerprint("sum_k_f_T", res.series["k_f"][-1].sum())
        return g.result(**_mmc_readings(res))
    return check


class UpsilonSolves:
    """Counts the upsilon solves of the MMC calls, one per Euler step and one
    per recorded row.  A batch that stalls stops early, after a share of its
    steps that depends on the seed; its progress is its solve count over that
    of the deterministic Fig 8 run, which has the same horizon, dt and stride,
    so the timing can charge it for the whole horizon at the rate it ran."""

    def __init__(self) -> None:
        self.full = 0
        self.last = 0

    def run(self, fn: Callable[[], object], full: bool = False) -> object:
        orig = getattr(mmc, "_upsilon_vec", None)
        if orig is None:  # nothing to count: progress stays unknown
            self.last = 0
            return fn()
        count = 0

        def counted(*args, **kwargs):
            nonlocal count
            count += 1
            return orig(*args, **kwargs)

        mmc._upsilon_vec = counted
        try:
            out = fn()
        finally:
            mmc._upsilon_vec = orig
            self.last = count
        if full:
            self.full = count
        return out

    def progress(self) -> float | None:
        return self.last / self.full if self.full and self.last else None


def circuit_sde(seed: int, refs: dict) -> Workload:
    gs = master_seed(seed, 0)
    ks = master_seed(seed, 1)
    solves = UpsilonSolves()
    calls = [
        Call("goodwin_fig3_s", "goodwin_fig3",
             lambda: goodwin.simulate(goodwin.GoodwinState(0.75, 0.8), goodwin.FIG3_PARAMS,
                                      horizon=10.0, dt=1e-3, paths=256,
                                      stream=RngStream(gs), record_stride=1000),
             _goodwin_check(refs, seed), path_steps=256 * 10_000, stream_seed=gs),
        Call("keen_fig6_s", "keen_fig6",
             lambda: keen.simulate(keen.KeenState(0.75, 0.8, 0.1), keen.FIG6_PARAMS,
                                   horizon=10.0, dt=1e-3, paths=256,
                                   stream=RngStream(ks), record_stride=1000),
             _keen_check(refs, seed), path_steps=256 * 10_000, stream_seed=ks),
        Call("mmc_fig8_s", "mmc_fig8",
             lambda: solves.run(lambda: mmc.simulate(mmc.FIG8_STATE, mmc.FIG8_PARAMS,
                                                     horizon=10.0, dt=0.01,
                                                     record_stride=100), full=True),
             _mmc_det_check(refs, seed), path_steps=1000),
    ]
    for b in range(ENSEMBLE_BATCHES):
        ms = master_seed(seed, 2, b)
        calls.append(Call(
            "mmc_ensemble_us_per_step", f"mmc_ensemble_{b}",
            lambda ms=ms: solves.run(lambda: mmc.simulate(
                mmc.FIG8_STATE, MMC_ENSEMBLE_PARAMS, horizon=10.0, dt=0.01,
                paths=ENSEMBLE_PATHS, stream=RngStream(ms), record_stride=100)),
            _mmc_batch_check(refs, seed, b), path_steps=ENSEMBLE_PATHS * 1000,
            stream_seed=ms,
            progress=solves.progress))
    warmup = [
        lambda: goodwin.simulate(goodwin.GoodwinState(0.75, 0.8), goodwin.FIG3_PARAMS,
                                 0.1, 1e-3, paths=4, stream=RngStream(0)),
        lambda: keen.simulate(keen.KeenState(0.75, 0.8, 0.1), keen.FIG6_PARAMS,
                              0.1, 1e-3, paths=4, stream=RngStream(0)),
        lambda: mmc.simulate(mmc.FIG8_STATE, MMC_ENSEMBLE_PARAMS, 0.1, 0.01,
                             stream=RngStream(0)),
    ]
    return Workload("circuit_sde", calls, warmup, [])


# --------------------------------------------------------------------------
# network_mc: path simulation with and without Eisenberg-Noe settlement


def _records_check(g: Gate, rec: network.PathRecords, horizon: float) -> None:
    g.require(np.all((rec.omega >= 0.0) & (rec.omega <= 1.0)), "payout fraction left [0, 1]")
    defaulted = ~np.isnan(rec.default_time)
    times = rec.default_time[defaulted]
    g.require(np.all((times > 0.0) & (times <= horizon + 1e-12)), "default time outside (0, T]")
    g.require(np.all(defaulted[rec.interior_default]), "interior default without a time")
    g.require(np.all(defaulted[rec.omega < 1.0 - 1e-9]), "bank paid below par without defaulting")


def _survival_stats(g: Gate, rec: network.PathRecords) -> network.SurvivalEstimate:
    est = network.survival_probabilities(rec)
    g.stat("joint", est.joint, est.joint_stderr)
    for i in range(rec.n_banks):
        g.stat(f"marginal_{i}", est.marginal[i], est.marginal_stderr[i])
    g.fingerprint("joint", est.joint)
    g.fingerprint("omega_sum", float(rec.omega.sum()))
    return est


def _fig15_check(refs, seed):
    def check(rec: network.PathRecords):
        g = Gate("network_fig15", refs, seed)
        _records_check(g, rec, 12.5)
        _survival_stats(g, rec)
        interior = rec.interior_default.any(axis=1)
        g.stat("interior_default_frac", interior.mean(),
               math.sqrt(interior.mean() * (1 - interior.mean()) / rec.n_paths))
        return g.result(interior_default_frac=float(interior.mean()), paths=rec.n_paths)
    return check


def _jump_check(refs, seed):
    def check(rec: network.PathRecords):
        g = Gate("network_jump", refs, seed)
        _records_check(g, rec, 5.0)
        _survival_stats(g, rec)
        return g.result()
    return check


def _grid_check(refs, seed, wedge_refs):
    def check(grid: network.GridSurvival):
        g = Gate("survival_grid", refs, seed)
        for name in ("joint", "marginal1"):
            arr = getattr(grid, name)
            g.require(np.all((arr >= 0.0) & (arr <= 1.0)), f"{name} left [0, 1]")
        g.require(np.all(grid.marginal1 >= grid.joint - 1e-12), "marginal below joint")
        # one shared driver ensemble: joint survival is pathwise monotone
        g.require(np.all(np.diff(grid.joint, axis=0) >= 0.0)
                  and np.all(np.diff(grid.joint, axis=1) >= 0.0),
                  "joint survival not monotone in the starting positions")
        for i, j in ((0, 0), (2, 2), (4, 4), (1, 3)):
            g.stat(f"joint_{i}{j}", grid.joint[i, j], grid.joint_stderr[i, j])
            g.stat(f"marginal1_{i}{j}", grid.marginal1[i, j], grid.marginal1_stderr[i, j])
        g.fingerprint("joint_sum", float(grid.joint.sum()))
        g.fingerprint("marginal1_sum", float(grid.marginal1.sum()))
        # Monte Carlo at x = (2, 2) against the wedge semi-analytics: the
        # discrete-monitoring bias, reported but not gated
        gap = {}
        for key, mc, se in (("Q", grid.joint[2, 2], grid.joint_stderr[2, 2]),
                            ("Q1", grid.marginal1[2, 2], grid.marginal1_stderr[2, 2])):
            ref = wedge_refs.get(key)
            gap[key] = (mc - ref) / se if ref is not None and se > 0 else 0.0
        return g.result(mc_gap_vs_wedge=gap)
    return check


def _jump_network() -> network.BankNetwork:
    net = network.fig15_network(external_assets=(60.0, 120.0))
    net.jumps = JumpSpec.systemic_idiosyncratic(0.4, np.array([0.3, 0.3]),
                                                np.array([1.5, 1.5]))
    return net


def network_mc(seed: int, refs: dict) -> Workload:
    fs, js, gs = (master_seed(seed, k) for k in (10, 11, 12))
    net = network.fig15_network()
    jnet = _jump_network()
    sigma_bar2 = network.nondim_context(net).sigma_bar ** 2
    wedge_ref = refs.get("exact", {}).get("wedge_rho0", {})
    calls = [
        Call("network_fig15_s", "network_fig15",
             lambda: network.simulate_paths(net, 12.5, NETWORK_DT, 4096, stream=RngStream(fs)),
             _fig15_check(refs, seed), path_steps=4096 * 625, stream_seed=fs),
        Call("network_jump_s", "network_jump",
             lambda: network.simulate_paths(jnet, 5.0, 0.01, 2000, stream=RngStream(js),
                                            dynamics="jump-diffusion"),
             _jump_check(refs, seed), path_steps=2000 * 500, stream_seed=js),
        Call("survival_grid_s", "survival_grid",
             lambda: network.two_bank_survival_grid(
                 net, 12.5, dt_scaled=sigma_bar2 * NETWORK_DT, paths=4096,
                 stream=RngStream(gs), x1_grid=GRID_AXIS, x2_grid=GRID_AXIS),
             _grid_check(refs, seed, {"Q": wedge_ref.get("Q"), "Q1": wedge_ref.get("Q1")}),
             stream_seed=gs),
    ]
    warmup = [
        lambda: network.simulate_paths(net, 1.0, 0.1, 64, stream=RngStream(0)),
        lambda: network.simulate_paths(jnet, 1.0, 0.1, 16, stream=RngStream(0),
                                       dynamics="jump-diffusion"),
        lambda: network.two_bank_survival_grid(net, 1.0, 0.01, 64, stream=RngStream(0)),
    ]
    return Workload("network_mc", calls, warmup, [])


# --------------------------------------------------------------------------
# wedge_quad: Bessel series and wedge quadrature


def _wedge_check(refs, seed, rho, kind):
    def check(out):
        value, err = out
        g = Gate(f"wedge_rho{rho:g}", refs, seed)
        g.require(0.0 < value < 1.0, f"{kind}={value} outside (0, 1)")
        g.require(err <= TOL_WEDGE_ERR, f"{kind} error estimate {err:.2e} above target")
        g.exact(kind, value, TOL_WEDGE_REF)
        if kind == "Q" and rho == 0.0:
            # independent banks: joint survival is a product of 1-d closed forms
            net = network.fig15_network(rho=0.0)
            ctx = network.nondim_context(net)
            t_bar = ctx.scaled_time(WEDGE_HORIZON)
            prod = 1.0
            for i in range(2):
                prod *= wedge.survival_1d(WEDGE_X[i], ctx.xi[i], 0.0,
                                          float(ctx.m_terminal[i]), t_bar)
            g.require(abs(value - prod) <= TOL_WEDGE_ORACLE,
                      f"Q at rho=0 is {value:.12g}, product of closed forms {prod:.12g}")
        return g.result(err_est=float(err))
    return check


def _q1_standalone_oracle(refs, seed):
    def run():
        g = Gate("wedge_q1_zero_mutual", refs, seed)
        net = network.fig15_network()
        net.mutual[:] = 0.0
        net.__post_init__()
        q1, _ = wedge.marginal_survival_Q1(net, WEDGE_X, WEDGE_HORIZON)
        ref = float(wedge.q1_standalone(net, WEDGE_X[0], WEDGE_HORIZON))
        g.require(abs(q1 - ref) <= TOL_WEDGE_ORACLE,
                  f"Q1 without mutual liabilities {q1:.12g} != standalone {ref:.12g}")
        return g.result()
    return run


def _conservation_oracle(refs, seed):
    def run():
        g = Gate("wedge_conservation", refs, seed)
        res = wedge.conservation_check(network.fig15_network(rho=0.3), WEDGE_X, WEDGE_HORIZON)
        resid = abs(res["total"] - 1.0)
        g.require(resid <= TOL_WEDGE_ORACLE, f"mass conservation off by {resid:.2e}")
        return g.result(conservation_residual=resid)
    return run


def wedge_quad(seed: int, refs: dict) -> Workload:
    calls = []
    for rho in WEDGE_RHOS:
        net = network.fig15_network(rho=rho)
        calls.append(Call("wedge_Q_s", f"wedge_rho{rho:g}",
                          lambda net=net: wedge.joint_survival_Q(net, WEDGE_X, WEDGE_HORIZON),
                          _wedge_check(refs, seed, rho, "Q")))
        calls.append(Call("wedge_Q1_s", f"wedge_rho{rho:g}",
                          lambda net=net: wedge.marginal_survival_Q1(net, WEDGE_X, WEDGE_HORIZON),
                          _wedge_check(refs, seed, rho, "Q1")))
    coarse = wedge.QuadratureSpec(panels=2, order=6, time_panels=2, target=1.0)
    warm_net = network.fig15_network(rho=0.3)
    warmup = [
        lambda: wedge.joint_survival_Q(warm_net, WEDGE_X, 1.0, coarse),
        lambda: wedge.marginal_survival_Q1(warm_net, WEDGE_X, 1.0, coarse),
    ]
    oracles = [Oracle("wedge_q1_zero_mutual", _q1_standalone_oracle(refs, seed)),
               Oracle("wedge_conservation", _conservation_oracle(refs, seed))]
    return Workload("wedge_quad", calls, warmup, oracles)


# --------------------------------------------------------------------------
# bank_control: dividend variational inequality and balance-sheet search

DIVIDEND_HORIZONS = (2.0, 5.0, 15.0)
DIVIDEND_GRID = 1200
DIVIDEND_DTAU = 2e-3

BAL_START = balance.FlowState(x=100.0, i=20.0, c=10.0, d=90.0, y=25.0, e=15.0)
BAL_PARAMS = balance.FlowParams(lam=0.2, mu=0.1, nu=0.06, xi=0.02, alpha=0.05,
                                beta=0.01, r=0.05, zeta=0.02, sigma=0.0, discount=0.3)
BAL_WEIGHTS = balance.RegWeights(rwa=0.8, kappa=0.105, k2=1.0, rsf_x=0.4,
                                 asf_d=0.8, co_d=0.05, ci_x=0.02)
BAL_HORIZON = 4.0
BAL_DT = 0.02
BAL_GRID = {"phi": np.linspace(0.0, 8.0, 5), "omega": np.array([0.0, 1.0, 2.0]),
            "pi": np.array([0.0, 2.0, 4.0]), "delta": np.linspace(0.0, 12.0, 9)}


class DividendState:
    """The barrier solved first in a pass sets e_max for the later solves."""

    def __init__(self) -> None:
        self.barrier: dividend.BarrierSolution | None = None
        self.free_boundary: dict[float, float] = {}


def _barrier_check(refs, seed):
    def check(sol: dividend.BarrierSolution):
        g = Gate("dividend_barrier", refs, seed)
        e = np.array([0.0, sol.e_star])
        # evaluated on arrays: the scalar path of BarrierSolution.value raises
        # a TypeError on numpy >= 2 (a known defect)
        g.require(abs(sol.value(e)[0]) < TOL_DIV_BARRIER, "V(0) != 0")
        g.require(abs(sol.derivative(e[1:], 1)[0] - 1.0) < TOL_DIV_BARRIER, "V_E(E*) != 1")
        g.require(abs(sol.derivative(e[1:], 2)[0]) < TOL_DIV_BARRIER, "V_EE(E*) != 0")
        for delta in (dividend.FIG13_PARAMS.delta1, dividend.FIG13_PARAMS.delta2):
            g.require(abs(np.sum(sol.coeffs / (sol.roots + delta))) < 1e-12,
                      "jump-consistency row violated")
        g.exact("e_star", sol.e_star, 1e-12, relative=True)
        return g.result()
    return check


def _variational_check(refs, seed, horizon, state: DividendState):
    def check(res: dividend.EquityValueGrid):
        g = Gate(f"dividend_h{horizon:g}", refs, seed)
        v = res.final()
        h = res.grid[1] - res.grid[0]
        g.require(np.array_equal(res.values[0], res.grid), "terminal condition V = E broken")
        g.require(np.all(v >= res.grid - 1e-12), "value below immediate payout")
        g.require(np.all(np.diff(v) / h >= 1.0 - TOL_DIV_SLOPE), "obstacle V_E >= 1 violated")
        fb = float(res.free_boundary[-1])
        state.free_boundary[horizon] = fb
        readings = {"cell_steps": res.grid.size * int(round(horizon / DIVIDEND_DTAU))}
        sol = state.barrier
        if sol is not None:
            # the free boundary moves toward E* as the horizon grows
            earlier = [state.free_boundary[t] for t in DIVIDEND_HORIZONS
                       if t < horizon and t in state.free_boundary]
            if earlier:
                g.require(abs(fb - sol.e_star) <= abs(earlier[-1] - sol.e_star) + h,
                          f"free boundary {fb:.4f} moved away from E*={sol.e_star:.4f}")
            readings["profile_err"] = float(np.max(np.abs(v - sol.value(res.grid))))
        for k in range(0, v.size, 100):
            g.exact(f"v_{k}", v[k], TOL_DIV_REF)
        g.exact("free_boundary", fb, 1e-12)
        return g.result(**readings)
    return check


def _search_check(refs, seed):
    def check(res: balance.SearchResult):
        g = Gate("balance_search", refs, seed)
        g.require(res.best is not None, "empty feasible set")
        if res.best is None:
            return g.result(feasible_ratio=0.0)
        best = res.best
        traj = balance.evolve(BAL_START, BAL_PARAMS, balance.Controls(**best.controls),
                              BAL_HORIZON, BAL_DT)
        scale = float(np.max(traj.x + traj.i + traj.c))
        g.require(traj.max_consistency_residual < TOL_BAL_IDENTITY * scale,
                  f"balance consistency residual {traj.max_consistency_residual:.3e}")
        g.require(math.isclose(balance.cashflow_objective(traj, BAL_PARAMS), best.cashflow,
                               rel_tol=1e-12), "best cash flow not reproducible")
        g.require(all(balance.constraints_report(traj.state_at(k), BAL_WEIGHTS).all_pass
                      for k in range(len(traj.t))), "best control violates a constraint")
        g.require(all(r.cashflow <= best.cashflow for r in res.table if r.feasible),
                  "a feasible control beats the reported best")
        g.exact("feasible_count", res.feasible_count, 0.0)
        g.exact("cashflow", best.cashflow, TOL_BAL_REF, relative=True)
        for name, value in best.controls.items():
            g.exact(f"best_{name}", value, 0.0)
        return g.result(feasible_ratio=res.feasible_count / len(res.table))
    return check


def bank_control(seed: int, refs: dict) -> Workload:
    state = DividendState()
    p = dividend.FIG13_PARAMS

    def barrier():
        state.barrier = None
        state.free_boundary.clear()
        sol = dividend.stationary_barrier(p)
        state.barrier = sol
        return sol

    def variational(horizon):
        e_star = state.barrier.e_star if state.barrier is not None else 1.0
        return dividend.solve_variational(p, horizon, 10.0 * e_star,
                                          n_grid=DIVIDEND_GRID, dtau=DIVIDEND_DTAU)

    calls = [Call("dividend_fig13_s", "dividend_barrier", barrier, _barrier_check(refs, seed))]
    for horizon in DIVIDEND_HORIZONS:
        calls.append(Call("dividend_fig13_s", f"dividend_h{horizon:g}",
                          lambda horizon=horizon: variational(horizon),
                          _variational_check(refs, seed, horizon, state)))
    calls.append(Call("balance_search_s", "balance_search",
                      lambda: balance.constant_control_search(
                          BAL_START, BAL_PARAMS, BAL_WEIGHTS, BAL_HORIZON, BAL_DT, BAL_GRID),
                      _search_check(refs, seed)))
    warmup = [
        lambda: dividend.solve_variational(p, 0.02, 5.0, n_grid=200, dtau=DIVIDEND_DTAU),
        lambda: balance.constant_control_search(BAL_START, BAL_PARAMS, BAL_WEIGHTS, 0.1,
                                                BAL_DT, {"delta": np.array([0.0])}),
    ]
    return Workload("bank_control", calls, warmup, [])


GROUPS = {"monte_carlo": (circuit_sde, network_mc),
          "deterministic": (wedge_quad, bank_control)}


def build(name: str, seed: int, refs: dict | None = None) -> Workload:
    if name not in GROUPS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    refs = load_references() if refs is None else refs
    parts = [group(seed, refs) for group in GROUPS[name]]
    return Workload(name, [c for p in parts for c in p.calls],
                    [w for p in parts for w in p.warmup],
                    [o for p in parts for o in p.oracles])
