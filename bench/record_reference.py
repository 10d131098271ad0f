"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record_reference.py

Writes ``bench/reference/``: the fig3-fig5 scenario files and their
``sweep --grid 2001`` CSVs (gzipped, with SHA-256 of the plain bytes), and
the ``welfare_warm`` results (welfare curves of all series and optimal
splits).  The committed files were recorded at the commit that introduced
the benchmark; re-record only when an output change is intended.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from workloads import (
    FIGURES,
    OUT_DIR,
    REFERENCE_DIR,
    SPLIT_PROVIDERS,
    SWEEP_GRID,
    child_env,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIGURE_FILES = {
    "fig3": "fig3_equal_multipliers.json",
    "fig4": "fig4_unlicensed_strong.json",
    "fig5": "fig5_unlicensed_slight.json",
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from spectrum_market import cli, welfare
    from spectrum_market.core import MarketParams

    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    figures = {}
    warm = {"grid_points": SWEEP_GRID, "figures": {}}
    for fig in FIGURES:
        scenario = cli._FIGURE_SCENARIOS[FIGURE_FILES[fig]]
        scen_path = OUT_DIR / FIGURE_FILES[fig]
        scen_path.write_text(json.dumps(scenario, indent=2) + "\n")
        csv_path = OUT_DIR / f"{fig}_reference.csv"
        subprocess.run(
            [sys.executable, "-m", "spectrum_market.cli", "sweep",
             "--scenario", str(scen_path), "--grid", str(SWEEP_GRID),
             "--format", "csv", "--out", str(csv_path)],
            env=child_env(SRC), check=True, timeout=300,
        )
        data = csv_path.read_bytes()
        with gzip.GzipFile(REFERENCE_DIR / f"{fig}.csv.gz", "wb", mtime=0) as fh:
            fh.write(data)
        figures[fig] = {
            "scenario_file": FIGURE_FILES[fig],
            "scenario": scenario,
            "csv": f"{fig}.csv.gz",
            "csv_sha256": hashlib.sha256(data).hexdigest(),
        }

        params = MarketParams(**scenario["params"])
        B = scenario["sweep"]["total_bandwidth"]
        curve = welfare.welfare_sweep(B, welfare.default_grid(B, SWEEP_GRID),
                                      welfare.ALL_SERIES, params)
        warm["figures"][fig] = {
            "sweep": {"series": curve.series, "kinks": curve.kinks},
            "optimal_split": {
                str(n): list(welfare.optimal_split(B, n, params))
                for n in SPLIT_PROVIDERS
            },
        }

    (REFERENCE_DIR / "figures.json").write_text(
        json.dumps({"grid_points": SWEEP_GRID, "figures": figures}, indent=2) + "\n")
    with gzip.GzipFile(REFERENCE_DIR / "welfare_warm.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(warm).encode())
    for fig in FIGURES:
        print(fig, figures[fig]["csv_sha256"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
