"""Baseline: run-to-run spread of every end-to-end metric, per-layer numbers,
and tier-1 durations, written to one JSON file.

    python3 bench/baseline.py [--out bench/out/baseline.json]

Runs ``bench/run.py --trace 0`` once per seed (1-10) and workload, one run
at a time, for the run length in BENCHMARK.json, and reports for each metric
the median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that median,
next to the metric's bound.  Then one ``--trace 1`` run per workload at the
first seed, and one tier-1 run (``tier1_report.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tier1_report import run_tier1

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((BENCH / "out" / f"{workload}-trace{trace}.json").read_text())
    return {"seed": seed, **result, "report": report, "wall_s": time.perf_counter() - t0}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH / "out" / "baseline.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = run_once(workload, seed, seconds, 0)
            runs.append(r)
            print(workload, seed, {k: round(v["value"], 6) for k, v in r["metrics"].items()},
                  f"failed {r['failed']}/{r['attempted']}",
                  "correct" if r["correct"] else "INCORRECT", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            summary[name] = {"median": med, "iqr_rel": rel, "bound": bound,
                             "min": min(values), "max": max(values), "values": values}
            print(f"  {workload:<14} {name:<8} median {med:<12.6g} IQR/median {rel:.4f}  "
                  f"bound {bound} (a third: {bound / 3:.4f})", flush=True)
        figures = {}
        for r in runs:
            for name, m in r["report"]["figures"].items():
                figures.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, m in figures.items():
            m["median"], m["iqr_rel"] = spread(m["values"])
        op_ms = [r["report"]["op_ms"]["median"] * 1e3 for r in runs]
        entry = {"summary": summary, "figures": figures,
                 "op_ms": {"values": op_ms, "median": spread(op_ms)[0],
                           "iqr_rel": spread(op_ms)[1]},
                 "correct": all(r["correct"] for r in runs),
                 "failed": [r["failed"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "wall_s": [r["wall_s"] for r in runs],
                 "machine": [r["report"]["machine"] for r in runs]}
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = traced["report"]["per_layer"]
        entry["per_layer_absent"] = traced["report"]["absent"]
        entry["traced_wall_s"] = traced["wall_s"]
        print(f"  {workload:<14} traced: overhead ratio "
              f"{entry['per_layer']['trace.overhead_ratio']:.3f}", flush=True)
        result["workloads"][workload] = entry
    result["tier1"] = run_tier1()
    print(f"tier-1 {result['tier1']['summary']}: acceptance 6 "
          f"{result['tier1']['acceptance_6_s']:.1f} s of {result['tier1']['wall_s']:.1f} s")
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
