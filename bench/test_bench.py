"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scenarios import ScenarioGenerator  # noqa: E402

import spectrum_market  # noqa: E402,F401
from spectrum_market import association, cli, monopoly, oligopoly, oracle, welfare  # noqa: E402,F401


def package_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and name.startswith("spectrum_market")
        for attr, value in vars(mod).items()
    }


def test_self_time_with_nested_and_overlapping_children():
    # root [0,10] with children A [1,4] and B [3,6], which overlap, and C
    # [8,12], which ends after its parent; A has a child [2,3].
    start = array("d", [0.0, 1.0, 3.0, 8.0, 2.0])
    end = array("d", [10.0, 4.0, 6.0, 12.0, 3.0])
    parent = array("i", [-1, 0, 0, 0, 1])
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_self_time_child_outside_parent_is_ignored():
    start = array("d", [0.0, 5.0])
    end = array("d", [1.0, 6.0])
    parent = array("i", [-1, 0])
    assert tracing.self_times(start, end, parent) == [1.0, 1.0]


def test_injected_exception_is_counted_and_does_not_abort():
    def boom():
        raise OverflowError("injected")

    def bad_check(_):
        raise workloads.CheckFailed("injected")

    ran = []
    pool = [
        workloads.Op([workloads.Call("k", "layer.a", boom, lambda out: {}),
                      workloads.Call("k", "layer.b", lambda: 1, bad_check)]),
        workloads.Op([workloads.Call("k", "layer.c", lambda: ran.append(1) or 2,
                                     lambda out: {"v": out})]),
    ]
    stats = run.Stats()
    run.run_pass(pool, stats)
    assert (stats.attempted, stats.failed, len(stats.op_times)) == (3, 2, 2)
    assert stats.failures == {("layer.a", "OverflowError"): 1, ("layer.b", "CheckFailed"): 1}
    assert ran == [1] and stats.extras["v"] == [2]
    assert run.reference_mismatches(stats) == 0


def test_measure_makes_the_passes_asked_for():
    calls = []
    pool = [workloads.Op([workloads.Call("k", "layer", lambda: calls.append(1), lambda out: {})])
            for _ in range(3)]
    stats, passes = run.measure(pool, seconds=60.0, passes=2)
    assert (passes, stats.attempted, len(calls)) == (2, 6, 7)  # one untimed warm-up call


def test_traced_failure_is_attributed_to_innermost_span():
    tracer = tracing.Tracer()
    stats = run.Stats()
    p = {"alpha": 0.5, "n_fixed": 50, "n_mobile": 50, "r0": 50, "lambda_s": 4, "lambda_u": 3}

    def bad_nash():
        return oligopoly.solve_nash([1.0, -1.0], 0.0, spectrum_market.MarketParams(**p))

    pool = [workloads.Op([workloads.Call("nash_n2", "oligopoly.solve_nash", bad_nash,
                                         lambda out: {})])]
    with tracing.Installed(tracer):
        run.run_pass(pool, stats, tracer)
    assert stats.failures == {("oligopoly.solve_nash", "DomainError"): 1}
    assert tracer.failures == {("oligopoly.solve_nash", "DomainError"): 1}


def test_wrappers_restore_module_bindings():
    before = package_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.Installed(tracer):
            assert oligopoly.solve_nash is not before[("spectrum_market.oligopoly", "solve_nash")]
            assert monopoly.solve_association is not before[
                ("spectrum_market.monopoly", "solve_association")]
            assert welfare.brentq.__bench_original__ is before[("spectrum_market.welfare", "brentq")]
            raise RuntimeError("leave the block early")
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.absent


def test_missing_binding_is_reported_absent(monkeypatch):
    monkeypatch.delattr(welfare, "brentq")
    monkeypatch.delattr(oracle, "grid_argmax")
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        welfare.market_welfare(2.0, 0.5, 1, spectrum_market.MarketParams(
            alpha=0.5, n_fixed=50, n_mobile=50, r0=50, lambda_s=4, lambda_u=4),
            welfare.SERIES_PLANNER)
    assert set(tracer.absent) == {"rootfind.welfare", "oracle.grid_argmax"}
    assert tracer.counts == {}
    by_name, _ = tracing.summarize(tracer)
    assert by_name["welfare.market_welfare"]["calls"] == 1


def test_traced_counts_repeat_exactly():
    ctx = run.Context(env={}, nash_ops=3)
    pool = workloads.build_nash_scaling(ScenarioGenerator(7), ctx)
    seen = []
    for _ in range(2):
        tracer, stats = tracing.Tracer(), run.Stats()
        with tracing.Installed(tracer):
            run.run_pass(pool, stats, tracer)
        by_name, _ = tracing.summarize(tracer)
        seen.append(({k: v["calls"] for k, v in by_name.items()}, dict(tracer.counts),
                     dict(stats.failures)))
    assert seen[0] == seen[1]


def test_generator_is_seeded():
    a = ScenarioGenerator(3)
    b = ScenarioGenerator(3)
    draws = [(a.params(), a.bandwidths(4), a.unlicensed(2.0)) for _ in range(50)]
    assert draws == [(b.params(), b.bandwidths(4), b.unlicensed(2.0)) for _ in range(50)]
    assert draws != [(g.params(), g.bandwidths(4), g.unlicensed(2.0))
                     for g in [ScenarioGenerator(4)] for _ in range(50)]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [n for n, _ in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nash_scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
