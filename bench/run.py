"""Figure-scenario benchmark for circuitlab.

    python3 bench/run.py --workload monte_carlo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop: one process and one caller run the
workload's scenarios back to back ("a pass").  A run makes a fixed number of
passes, sized from --seconds, so that the operations attempted and failed
depend only on the seed and --seconds.  Every pass is followed, outside the
timed region, by the accuracy gate in scenarios.py.  Each call's time is
scaled to a reference host speed with a calibration kernel timed around it
(see `calibration_s`), and a reported time is the sum over the calls of each
call's median scaled time across the passes.  A call that stops early (a
stalled MMC batch) is charged for its full length at the rate it ran.  Set-up (importing
circuitlab and building the inputs) is timed in fresh child processes.

With --trace 0 the final JSON line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-module metrics, taken
from traced passes that alternate with untraced ones so the tracing
overhead can be reported.  The lines before it are a human-readable report
with the seeds, every per-scenario time, the failures and the environment.
"""

import os

# pinned before numpy loads: the scenarios are single-threaded by design
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("monte_carlo", "deterministic")
SETUP_PROBES = 5
# untraced seconds per pass on the development machine (2-vCPU Xeon VM); a
# run makes round(--seconds / PASS_S) passes, so its operation count is fixed
PASS_S = {"monte_carlo": 5.5, "deterministic": 7.5}

# The host's speed drifts: on the development VM, stretches of tens of
# seconds ran every scenario 1.3-1.8x slower, so even the fastest of a run's
# passes was often slow.  A short calibration kernel slows with the host, so
# CALIBRATION_REPS runs of it go before and after every timed call, and the
# call's time is scaled by CALIBRATION_REF_S over the fastest of them: times
# read as seconds on a host where the kernel takes CALIBRATION_REF_S.  See
# bench/README.md for how much this steadied the figures.
CALIBRATION_REF_S = 0.023
CALIBRATION_REPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-scenario seconds per pass, printed in the report
SCENARIO_UNITS = {
    "monte_carlo": {"goodwin_fig3_s": "s", "keen_fig6_s": "s", "mmc_fig8_s": "s",
                    "mmc_ensemble_us_per_step": "us", "network_fig15_s": "s",
                    "network_jump_s": "s", "survival_grid_s": "s"},
    "deterministic": {"wedge_Q_s": "s", "wedge_Q1_s": "s", "dividend_fig13_s": "s",
                      "balance_search_s": "s"},
}

PER_LAYER = {
    "rng.normals_s": "s", "rng.normals_draws": "count",
    "rng.generators_built": "count", "rng.generator_build_s": "s",
    "goodwin.simulate_s": "s", "goodwin.path_steps_per_s": "1/s",
    "goodwin.clamp_events": "count",
    "keen.simulate_s": "s", "keen.path_steps_per_s": "1/s",
    "keen.clamp_events": "count", "keen.minsky_paths": "count",
    "mmc.simulate_s": "s", "mmc.path_steps_per_s": "1/s", "mmc.upsilon_evals": "count",
    "mmc.upsilon_evals_per_step": "count", "mmc.logistic_s": "s",
    "mmc.upsilon_failures": "count", "mmc.max_identity_residual": "abs",
    "mmc.credit_crunch_steps": "count", "mmc.floor_hits": "count",
    "network.simulate_paths_s": "s", "network.path_steps_per_s": "1/s",
    "network.clearing_calls": "count", "network.clearing_sweeps": "count",
    "network.clearing_s": "s", "network.clearing_calls_in_grid": "count",
    "network.interior_default_frac": "share", "network.clearing_path_frac": "share",
    "network.grid_s": "s", "network.jump_events": "count",
    "network.mc_gap_vs_wedge_Q": "se", "network.mc_gap_vs_wedge_Q1": "se",
    "bessel.iv_scaled_calls": "count", "bessel.iv_scaled_points": "count",
    "bessel.iv_scaled_s": "s",
    "wedge.green_calls": "count", "wedge.green_points": "count", "wedge.green_s": "s",
    "wedge.flux_calls": "count", "wedge.flux_calls_in_Q": "count",
    "wedge.flux_points": "count", "wedge.flux_s": "s",
    "wedge.series_terms_per_call": "count", "wedge.norm_cdf_s": "s",
    "wedge.norm_cdf_points": "count", "wedge.Q_err_est": "abs",
    "wedge.Q1_err_est": "abs", "wedge.conservation_residual": "abs",
    "dividend.solve_s": "s", "dividend.banded_solves": "count",
    "dividend.banded_solve_s": "s", "dividend.march_self_s": "s",
    "dividend.cell_steps_per_s": "1/s", "dividend.barrier_s": "s",
    "dividend.profile_err": "abs",
    "balance.evolve_calls": "count", "balance.evolve_s": "s",
    "balance.constraints_calls": "count", "balance.constraints_s": "s",
    "balance.feasible_ratio": "share",
    "bench.trace_overhead_s": "s",
}

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import scenarios
scenarios.build({workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def calibration_s() -> float:
    """Seconds of one run of the calibration kernel.  Its first part is an
    Euler loop of numpy ops on 64-wide arrays, bound by interpreter and ufunc
    dispatch like the per-step SDE kernels; its second is transcendental
    math on 20,000-point arrays, like the quadrature and the wide Monte
    Carlo.  Host load slows the two parts by different factors.  The kernel
    uses numpy only, so no change to circuitlab moves it."""
    import numpy as np
    x = np.full(64, 0.5)
    y = np.full(64, 0.5)
    grid = np.linspace(0.1, 3.0, 20_000)
    t0 = time.perf_counter()
    for _ in range(3000):
        e = np.exp(-x)
        x = np.minimum(np.maximum(x + 1e-3 * (y * e - x), 0.01), 0.99)
        y = y * 0.9999 + 1e-4 * e
    z = grid
    for _ in range(25):
        z = grid + 1e-9 * (np.exp(-z * z) * np.sin(3.0 * z) + np.sqrt(z) * np.log1p(z))
    return time.perf_counter() - t0


def calibrations() -> list[float]:
    return [calibration_s() for _ in range(CALIBRATION_REPS)]


def host_scale(before: list[float], after: list[float]) -> float:
    """Factor that turns seconds measured between two sets of calibration
    runs into reference-host seconds."""
    return CALIBRATION_REF_S / min(before + after)


@dataclass
class PassResult:
    wall_s: float
    call_s: list[float]                  # seconds charged to each call, aligned with the calls
    scale: list[float]                   # host_scale of each call
    completed_steps: dict[str, int]
    readings: list[dict | None]          # aligned with the workload's calls
    errors: list[str | None]             # exception raised by each call
    check_failures: list[str]
    checks_failed: int
    trace: object = None


@dataclass
class Tally:
    attempted: int = 0
    raised: int = 0
    check_failed: int = 0
    messages: dict[str, int] = field(default_factory=dict)

    def add(self, message: str) -> None:
        self.messages[message] = self.messages.get(message, 0) + 1

    @property
    def failed(self) -> int:
        return self.raised + self.check_failed


def install_tracer(tracer) -> None:
    """Wrap each module's public entry points where their callers look them up."""
    import numpy as np
    from circuitlab import balance, dividend, goodwin, keen, mmc, network, rng, wedge

    size = lambda a, k, out: np.size(out)  # noqa: E731
    tracer.wrap(rng.PathNoise, "normals", "rng.normals", units=size)
    tracer.wrap(rng.RngStream, "generator", "rng.generator")
    tracer.wrap(goodwin, "simulate", "goodwin.simulate")
    tracer.wrap(keen, "simulate", "keen.simulate")
    tracer.wrap(mmc, "simulate", "mmc.simulate")
    tracer.wrap(mmc, "logistic", "mmc.logistic")
    tracer.wrap(network, "simulate_paths", "network.simulate_paths")
    tracer.wrap(network, "two_bank_survival_grid", "network.grid")
    tracer.wrap(network, "clearing_vector", "network.clearing_vector",
                units=lambda a, k, out: out.iterations)
    tracer.wrap(network, "_draw_jump_events", "network.jump_events",
                units=lambda a, k, out: sum(len(v[0]) for v in out.values()))
    tracer.wrap(wedge, "joint_survival_Q", "wedge.Q")
    tracer.wrap(wedge, "marginal_survival_Q1", "wedge.Q1")
    tracer.wrap(wedge, "wedge_green", "wedge.green", units=size)
    tracer.wrap(wedge, "boundary_flux", "wedge.flux", units=size)
    tracer.wrap(wedge, "iv_scaled", "bessel.iv_scaled", units=size)
    tracer.wrap(wedge, "norm_cdf", "wedge.norm_cdf", units=size)
    tracer.wrap(dividend, "stationary_barrier", "dividend.barrier")
    tracer.wrap(dividend, "solve_variational", "dividend.solve")
    tracer.wrap(dividend, "solve_banded", "dividend.solve_banded")
    tracer.wrap(balance, "constant_control_search", "balance.search")
    tracer.wrap(balance, "evolve", "balance.evolve")
    tracer.wrap(balance, "constraints_report", "balance.constraints")


def run_pass(workload, traced: bool) -> PassResult:
    """One timed pass over the workload's calls, then its accuracy gate."""
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        install_tracer(tracer)
    outputs = []
    gaps = [calibrations()]
    wall = 0.0
    try:
        for call in workload.calls:
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(call.scenario):
                        out = call.run()
                else:
                    out = call.run()
                err = None
            except Exception as exc:  # a raising call is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            wall += dt
            share = call.progress() if err is not None and call.progress else None
            # a call that stopped early is charged for its full length
            outputs.append((out, err, dt / share if share else dt))
            gaps.append(calibrations())
    finally:
        if tracer is not None:
            tracer.uninstall()

    steps: dict[str, int] = {}
    readings: list[dict | None] = []
    errors: list[str | None] = []
    check_failures: list[str] = []
    checks_failed = 0
    for call, (out, err, dt) in zip(workload.calls, outputs):
        steps.setdefault(call.scenario, 0)
        errors.append(err)
        if err is not None:
            readings.append(None)
            continue
        steps[call.scenario] += call.path_steps
        try:
            msgs, read = call.check(out)
        except Exception as exc:  # a check that cannot run is a failed check
            msgs, read = [f"{call.label}: check raised {type(exc).__name__}: {exc}"], {}
        readings.append(read)
        check_failures.extend(msgs)
        checks_failed += bool(msgs)
    scale = [host_scale(before, after) for before, after in zip(gaps, gaps[1:])]
    return PassResult(wall, [dt for _, _, dt in outputs], scale, steps, readings, errors,
                      check_failures, checks_failed,
                      tracer.summary() if tracer is not None else None)


def tally_pass(tally: Tally, workload, p: PassResult) -> None:
    tally.attempted += len(workload.calls)
    for call, err in zip(workload.calls, p.errors):
        if err is not None:
            tally.raised += 1
            # messages that differ only in the reported step size count together
            tally.add(f"{call.label}: {err.split(' at step')[0]}")
    tally.check_failed += p.checks_failed
    for m in p.check_failures:
        tally.add(m)


def run_oracles(tally: Tally, workload) -> dict:
    """Module checks whose oracle needs its own computation, once per run."""
    readings = {}
    for oracle in workload.oracles:
        tally.attempted += 1
        try:
            msgs, read = oracle.run()
        except Exception as exc:
            msgs, read = [f"{oracle.label}: {type(exc).__name__}: {exc}"], {}
            tally.raised += 1
        else:
            tally.check_failed += bool(msgs)
        for m in msgs:
            tally.add(m)
        readings[oracle.label] = read
    return readings


def measure_setup(workload: str, seed: int) -> float:
    """Median time, in reference-host seconds, of importing circuitlab and
    building the inputs in a fresh interpreter."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    times = []
    before = calibrations()
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        after = calibrations()
        times.append(float(out.stdout.strip().splitlines()[-1]) * host_scale(before, after))
        before = after
    return statistics.median(times)


def median_call_s(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each call's median time over the passes, in reference-host seconds
    unless `scaled` is false.  Every pass repeats the same inputs."""
    return [statistics.median(times) for times in
            zip(*([t * (k if scaled else 1.0) for t, k in zip(p.call_s, p.scale)]
                  for p in passes))]


def scenario_metrics(workload, passes: list[PassResult]) -> dict[str, float | None]:
    typical = median_call_s(passes)
    out = {}
    for name in SCENARIO_UNITS[workload.name]:
        seconds = sum(t for call, t in zip(workload.calls, typical) if call.scenario == name)
        if name == "mmc_ensemble_us_per_step":
            # a stalled batch is charged for its full length, so every batch
            # counts its full path-steps
            steps = sum(c.path_steps for c in workload.calls if c.scenario == name)
            out[name] = 1e6 * seconds / steps
        else:
            out[name] = seconds
    return out


def _readings(workload, p: PassResult, scenario: str, key: str) -> list:
    return [r[key] for call, r in zip(workload.calls, p.readings)
            if call.scenario == scenario and r is not None and key in r]


def layer_metrics(workload, p: PassResult, oracle_readings: dict) -> dict[str, float]:
    """Per-module metrics of one traced pass; modules a workload leaves idle read 0."""
    s = p.trace
    m: dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    normals, gens = s.get("rng.normals"), s.get("rng.generator")
    m["rng.normals_s"] = normals.total_s
    m["rng.normals_draws"] = normals.units
    m["rng.generators_built"] = gens.calls
    m["rng.generator_build_s"] = gens.total_s

    steps = {k: p.completed_steps.get(k, 0) for k in
             ("goodwin_fig3_s", "keen_fig6_s", "mmc_fig8_s", "mmc_ensemble_us_per_step",
              "network_fig15_s", "network_jump_s")}
    gw = s.get("goodwin.simulate")
    m["goodwin.simulate_s"] = gw.total_s
    m["goodwin.path_steps_per_s"] = ratio(steps["goodwin_fig3_s"], gw.total_s)
    m["goodwin.clamp_events"] = sum(_readings(workload, p, "goodwin_fig3_s", "clamp_events"))
    kn = s.get("keen.simulate")
    m["keen.simulate_s"] = kn.total_s
    m["keen.path_steps_per_s"] = ratio(steps["keen_fig6_s"], kn.total_s)
    m["keen.clamp_events"] = sum(_readings(workload, p, "keen_fig6_s", "clamp_events"))
    m["keen.minsky_paths"] = sum(_readings(workload, p, "keen_fig6_s", "minsky_paths"))

    sim, logi = s.get("mmc.simulate"), s.get("mmc.logistic")
    mmc_scen = ("mmc_fig8_s", "mmc_ensemble_us_per_step")
    m["mmc.simulate_s"] = sim.total_s
    m["mmc.path_steps_per_s"] = ratio(steps["mmc_fig8_s"] + steps["mmc_ensemble_us_per_step"],
                                     sim.total_s)
    m["mmc.upsilon_evals"] = logi.calls
    m["mmc.upsilon_evals_per_step"] = ratio(s.within("mmc_fig8_s", "mmc.logistic").calls,
                                           steps["mmc_fig8_s"])
    m["mmc.logistic_s"] = logi.total_s
    m["mmc.upsilon_failures"] = sum(
        1 for call, err in zip(workload.calls, p.errors)
        if call.scenario in mmc_scen and err is not None and err.startswith("UpsilonError"))
    mmc_read = {k: [v for sc in mmc_scen for v in _readings(workload, p, sc, k)]
                for k in ("max_identity_residual", "credit_crunch_steps", "floor_hits")}
    m["mmc.max_identity_residual"] = max(mmc_read["max_identity_residual"], default=0.0)
    m["mmc.credit_crunch_steps"] = sum(mmc_read["credit_crunch_steps"])
    m["mmc.floor_hits"] = sum(mmc_read["floor_hits"])

    paths, clear = s.get("network.simulate_paths"), s.get("network.clearing_vector")
    m["network.simulate_paths_s"] = paths.total_s
    m["network.path_steps_per_s"] = ratio(steps["network_fig15_s"] + steps["network_jump_s"],
                                         paths.total_s)
    m["network.clearing_calls"] = clear.calls
    m["network.clearing_sweeps"] = clear.units
    m["network.clearing_s"] = clear.total_s
    m["network.clearing_calls_in_grid"] = s.within("survival_grid_s",
                                                   "network.clearing_vector").calls
    fig15_paths = _readings(workload, p, "network_fig15_s", "paths")
    m["network.interior_default_frac"] = sum(
        _readings(workload, p, "network_fig15_s", "interior_default_frac"))
    m["network.clearing_path_frac"] = (
        s.within("network_fig15_s", "network.clearing_vector").calls / fig15_paths[0]
        if fig15_paths else 0.0)
    m["network.grid_s"] = s.get("network.grid").total_s
    m["network.jump_events"] = s.get("network.jump_events").units
    gaps = _readings(workload, p, "survival_grid_s", "mc_gap_vs_wedge")
    m["network.mc_gap_vs_wedge_Q"] = gaps[0]["Q"] if gaps else 0.0
    m["network.mc_gap_vs_wedge_Q1"] = gaps[0]["Q1"] if gaps else 0.0

    iv, green, flux, ncdf = (s.get(k) for k in
                             ("bessel.iv_scaled", "wedge.green", "wedge.flux", "wedge.norm_cdf"))
    m["bessel.iv_scaled_calls"] = iv.calls
    m["bessel.iv_scaled_points"] = iv.units
    m["bessel.iv_scaled_s"] = iv.total_s
    m["wedge.green_calls"] = green.calls
    m["wedge.green_points"] = green.units
    m["wedge.green_s"] = green.total_s
    m["wedge.flux_calls"] = flux.calls
    m["wedge.flux_calls_in_Q"] = s.within("wedge_Q_s", "wedge.flux").calls
    m["wedge.flux_points"] = flux.units
    m["wedge.flux_s"] = flux.total_s
    m["wedge.series_terms_per_call"] = (iv.calls / (green.calls + flux.calls)
                                        if green.calls + flux.calls else 0.0)
    m["wedge.norm_cdf_s"] = ncdf.total_s
    m["wedge.norm_cdf_points"] = ncdf.units
    m["wedge.Q_err_est"] = max(_readings(workload, p, "wedge_Q_s", "err_est"), default=0.0)
    m["wedge.Q1_err_est"] = max(_readings(workload, p, "wedge_Q1_s", "err_est"), default=0.0)
    m["wedge.conservation_residual"] = oracle_readings.get(
        "wedge_conservation", {}).get("conservation_residual", 0.0)

    solve, banded = s.get("dividend.solve"), s.get("dividend.solve_banded")
    m["dividend.solve_s"] = solve.total_s
    m["dividend.banded_solves"] = banded.calls
    m["dividend.banded_solve_s"] = banded.total_s
    m["dividend.march_self_s"] = solve.self_s
    m["dividend.cell_steps_per_s"] = ratio(
        sum(_readings(workload, p, "dividend_fig13_s", "cell_steps")), solve.total_s)
    m["dividend.barrier_s"] = s.get("dividend.barrier").total_s
    m["dividend.profile_err"] = max(_readings(workload, p, "dividend_fig13_s", "profile_err"),
                                    default=0.0)

    ev, cons = s.get("balance.evolve"), s.get("balance.constraints")
    m["balance.evolve_calls"] = ev.calls
    m["balance.evolve_s"] = ev.total_s
    m["balance.constraints_calls"] = cons.calls
    m["balance.constraints_s"] = cons.total_s
    m["balance.feasible_ratio"] = sum(
        _readings(workload, p, "balance_search_s", "feasible_ratio"))
    return m


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "src_lines": src_lines}


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import scenarios

    setup_s = measure_setup(name, seed)
    workload = scenarios.build(name, seed)
    for warm in workload.warmup:
        warm()

    tally = Tally()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    passes = max(1, round(seconds / PASS_S[name]))
    for i in range(max(2, passes) if trace else passes):
        as_traced = trace and i % 2 == 1
        p = run_pass(workload, as_traced)
        (traced if as_traced else untraced).append(p)
        tally_pass(tally, workload, p)
    oracle_readings = run_oracles(tally, workload)

    wall_s = sum(median_call_s(untraced))
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"untraced_passes={len(untraced)} traced_passes={len(traced)}")
    print("# environment " + json.dumps(environment()))
    print("# input seeds " + json.dumps({c.label: c.stream_seed for c in workload.calls
                                          if c.stream_seed is not None}))
    for metric, value in scenario_metrics(workload, untraced).items():
        print(f"# {metric} = {fmt(value)} {SCENARIO_UNITS[name][metric]}")
    print(f"# wall_s = {fmt(wall_s)} s   setup_s = {fmt(setup_s)} s   "
          f"unscaled wall_s = {fmt(sum(median_call_s(untraced, scaled=False)))} s")
    print("# pass_wall_s (unscaled) = " + json.dumps([round(p.wall_s, 4) for p in untraced]))
    print("# pass_host_scale (median over calls) = "
          + json.dumps([round(statistics.median(p.scale), 4) for p in untraced]))
    print(f"# failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} calls: {tally.raised} raised, "
          f"{tally.check_failed} failed their check)")
    for message, count in sorted(tally.messages.items()):
        print(f"#   {count} x {message}")

    if trace:
        per_pass = [layer_metrics(workload, p, oracle_readings) for p in traced]
        metrics = {k: {"value": statistics.median(pp[k] for pp in per_pass), "unit": u}
                   for k, u in PER_LAYER.items() if k != "bench.trace_overhead_s"}
        overhead = sum(median_call_s(traced)) - wall_s
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        first = traced[0].trace
        print(f"# spans per traced pass = {first.n_spans}")
        for span, st in sorted(first.overall.items(), key=lambda kv: -kv[1].self_s):
            print(f"#   {span}: calls={st.calls} total_s={st.total_s:.6g} self_s={st.self_s:.6g}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": tally.check_failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "circuitlab" / "__init__.py").is_file():
        print(f"error: no circuitlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
