"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import scenarios  # noqa: E402
from circuitlab import mmc  # noqa: E402
from circuitlab.rng import PathNoise, RngStream  # noqa: E402

SEED = 3
COUNTED_CALLS = ("mmc_fig8", "wedge_rho0", "network_fig15", "dividend_barrier",
                 "dividend_h2", "balance_search")


def traced_subset(seed: int) -> tuple[scenarios.Workload, run.PassResult]:
    calls = []
    for name in scenarios.WORKLOADS:
        for call in scenarios.build(name, seed).calls:
            if call.label in COUNTED_CALLS and call.scenario != "wedge_Q1_s":
                calls.append(call)
    workload = scenarios.Workload("subset", calls, [], [])
    return workload, run.run_pass(workload, traced=True)


@pytest.fixture(scope="module")
def two_passes():
    return traced_subset(SEED), traced_subset(SEED)


def counters(p: run.PassResult) -> dict:
    s = p.trace
    return {
        "upsilon_evals": s.get("mmc.logistic").calls,
        "iv_scaled_calls": s.get("bessel.iv_scaled").calls,
        "iv_scaled_points": s.get("bessel.iv_scaled").units,
        "clearing_calls": s.get("network.clearing_vector").calls,
        "clearing_sweeps": s.get("network.clearing_vector").units,
        "banded_solves": s.get("dividend.solve_banded").calls,
        "evolve_calls": s.get("balance.evolve").calls,
        "normals_draws": s.get("rng.normals").units,
    }


def test_work_counters_repeat_for_a_fixed_seed(two_passes):
    (_, a), (_, b) = two_passes
    ca, cb = counters(a), counters(b)
    assert ca == cb
    assert all(v > 0 for v in ca.values()), ca
    assert a.checks_failed == 0 and b.checks_failed == 0, a.check_failures


def test_layer_metrics_cover_every_per_layer_name(two_passes):
    (workload, p), _ = two_passes
    m = run.layer_metrics(workload, p, {})
    assert set(m) == set(run.PER_LAYER) - {"bench.trace_overhead_s"}
    assert m["wedge.flux_calls_in_Q"] == 0
    assert m["mmc.upsilon_evals_per_step"] > 1


def test_different_seed_changes_monte_carlo_inputs():
    def draws(seed):
        out = {}
        for name in scenarios.WORKLOADS:
            for call in scenarios.build(name, seed).calls:
                if call.stream_seed is not None:
                    out[call.label] = PathNoise(RngStream(call.stream_seed), 2).normals(3, 2)
        return out

    a, a_again, b = draws(1), draws(1), draws(2)
    assert a and set(a) == set(b)
    for key in a:
        assert (a[key] == a_again[key]).all()
        assert not (a[key] == b[key]).any(), key


def test_every_named_metric_has_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert run.WORKLOADS == scenarios.WORKLOADS == tuple(run.PASS_S)
    for name in scenarios.WORKLOADS:
        timed = {call.scenario for call in scenarios.build(name, SEED).calls}
        assert timed == set(run.SCENARIO_UNITS[name])


def test_stalled_batch_is_charged_for_its_full_length():
    calls = {c.label: c for c in scenarios.build("monte_carlo", SEED).calls}
    calls["mmc_fig8"].run()
    for b in range(scenarios.ENSEMBLE_BATCHES):
        call = calls[f"mmc_ensemble_{b}"]
        try:
            call.run()
        except mmc.UpsilonError:
            assert 0.0 < call.progress() < 1.0
        else:
            assert call.progress() == 1.0


def test_gate_rejects_a_moved_result():
    refs = scenarios.load_references()
    call = next(c for c in scenarios.build("deterministic", SEED, refs).calls
                if c.scenario == "wedge_Q_s" and c.label == "wedge_rho0")
    q = refs["exact"]["wedge_rho0"]["Q"]
    assert call.check((q, 0.0))[0] == []
    assert call.check((q + 10 * scenarios.TOL_WEDGE_REF, 0.0))[0]
