"""Tier-1 test durations: one run of the repository's test suite, not gated.

    python3 bench/tier1_report.py [--out bench/out/tier1.json]

Runs ``python -m pytest -q --durations=0`` once with ``src`` on the path and
reports the wall time, the slowest tests, and the share of acceptance
criterion 6 (the solver/oracle grid cross-check) in the total.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from workloads import child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ACCEPTANCE_6 = "tests/test_acceptance.py::test_acceptance_6_oracle_equivalence"
DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")


def run_tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--durations=0",
            "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(ROOT / "src"),
                          capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - t0
    durations = {}
    for line in proc.stdout.splitlines():
        m = DURATION.match(line)
        if m:
            durations[m.group(3)] = durations.get(m.group(3), 0.0) + float(m.group(1))
    summary = [ln for ln in proc.stdout.splitlines() if re.search(r"\d+ passed|failed|error", ln)]
    total_tests = sum(durations.values())
    a6 = durations.get(ACCEPTANCE_6, 0.0)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "summary": summary[-1] if summary else "",
        "sum_of_test_durations_s": total_tests,
        "acceptance_6_s": a6,
        "acceptance_6_share_of_wall": a6 / wall,
        "slowest": sorted(durations.items(), key=lambda kv: -kv[1])[:10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH / "out" / "tier1.json"))
    args = parser.parse_args()
    rep = run_tier1()
    print(f"tier-1: {rep['summary']}  wall {rep['wall_s']:.1f} s  "
          f"(exit {rep['returncode']})")
    print(f"acceptance 6: {rep['acceptance_6_s']:.1f} s, "
          f"{100 * rep['acceptance_6_share_of_wall']:.0f}% of the wall time")
    for test, secs in rep["slowest"]:
        print(f"  {secs:8.2f} s  {test}")
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(rep, indent=1) + "\n")
    return 0 if rep["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
