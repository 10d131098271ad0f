"""Command-line front end: JSON scenarios in, JSON/CSV reports out.

Exit codes: 0 success, 2 scenario validation failure, 3 solver internal
consistency failure, or a JSON report that would hold NaN or inf.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .core import (
    DomainError,
    MarketModelError,
    MarketParams,
    SolverConsistencyError,
)
from .association import AllocationProfile, solve_association
from . import monopoly, oligopoly, welfare

SCHEMA_VERSION = 1

EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class ScenarioError(MarketModelError):
    """Scenario file failed validation."""


def _fmt(x) -> str:
    return f"{x:.12g}"


def _require_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown field '{key}'")


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    _require_keys(
        raw, "scenario", ["schema_version", "params"],
        ["associate", "monopoly", "nash", "planner", "sweep"],
    )
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {raw['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    _require_keys(
        raw["params"], "params",
        ["alpha", "n_fixed", "n_mobile", "r0", "lambda_s", "lambda_u"],
    )
    return raw


def scenario_params(raw: dict) -> MarketParams:
    try:
        return MarketParams(**raw["params"])
    except DomainError as exc:
        raise ScenarioError(f"params: {exc}") from exc


def _section(raw: dict, name: str) -> dict:
    if name not in raw:
        raise ScenarioError(f"scenario has no '{name}' section")
    return raw[name]


def _number(value, where: str, kind=(int, float)):
    """``value`` if it is a finite JSON number of ``kind``; bools are not."""
    try:  # math.isfinite overflows on an integer beyond float range
        if isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value):
            return value
    except OverflowError:
        pass
    noun = "integer" if kind is int else "number"
    raise ScenarioError(f"{where}: expected a finite {noun}, got {value!r}")


def _numbers(values, where: str, depth: int = 1) -> list:
    """``values`` if it is a list (nested ``depth`` deep) of finite numbers."""
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list, got {values!r}")
    return [_numbers(v, where, depth - 1) if depth > 1 else _number(v, where) for v in values]


def _outcome_dict(outcome) -> dict:
    d = outcome._asdict()
    d["regime"] = outcome.regime.value
    d["revenue_per_sp"] = list(outcome.revenue_per_sp)
    return d


def _allocation_dict(profile: AllocationProfile) -> dict:
    return {
        "per_sp": [[bm, bs] for bm, bs in profile.per_sp],
        "b_unlicensed": profile.b_unlicensed,
    }


def cmd_associate(raw: dict, params: MarketParams) -> dict:
    sec = _section(raw, "associate")
    _require_keys(sec, "associate", ["per_sp"], ["b_unlicensed"])
    try:
        per_sp = _numbers(sec["per_sp"], "associate.per_sp", depth=2)
        b_u = _number(sec.get("b_unlicensed", 0.0), "associate.b_unlicensed")
        profile = AllocationProfile(per_sp, b_u)
    except (DomainError, ValueError) as exc:
        raise ScenarioError(f"associate: {exc}") from exc
    outcome = solve_association(profile, params)
    return {
        "allocation": _allocation_dict(profile),
        "outcome": _outcome_dict(outcome),
    }


def cmd_monopoly(raw: dict, params: MarketParams) -> dict:
    sec = _section(raw, "monopoly")
    _require_keys(sec, "monopoly", ["total_bandwidth"], ["b_unlicensed", "objective"])
    objective = sec.get("objective", "revenue")
    B = _number(sec["total_bandwidth"], "monopoly.total_bandwidth")
    b_u = _number(sec.get("b_unlicensed", 0.0), "monopoly.b_unlicensed")
    if objective == "revenue":
        sol = monopoly.optimize_revenue(B, b_u, params)
    elif objective == "social_welfare":
        sol = monopoly.optimize_welfare(B, b_u, params)
    else:
        raise ScenarioError(f"monopoly: unknown objective {objective!r}")
    return {
        "objective": sol.objective.value,
        "b_macro": sol.b_macro,
        "b_small": sol.b_small,
        "boundary": sol.boundary,
        "allocation": _allocation_dict(
            AllocationProfile([(sol.b_macro, sol.b_small)], b_u)
        ),
        "outcome": _outcome_dict(sol.outcome),
    }


def cmd_nash(raw: dict, params: MarketParams) -> dict:
    sec = _section(raw, "nash")
    _require_keys(sec, "nash", ["bandwidths"], ["b_unlicensed"])
    bandwidths = _numbers(sec["bandwidths"], "nash.bandwidths")
    b_u = _number(sec.get("b_unlicensed", 0.0), "nash.b_unlicensed")
    result = oligopoly.solve_nash(bandwidths, b_u, params)
    return {
        "classification": result.classification.value,
        "macro_only_set": sorted(result.macro_only_set),
        "kkt_residuals": list(result.kkt_residuals),
        "allocation": _allocation_dict(result.profile),
        "outcome": _outcome_dict(result.outcome),
    }


def cmd_planner(raw: dict, params: MarketParams) -> dict:
    sec = _section(raw, "planner")
    _require_keys(sec, "planner", ["total_bandwidth"])
    B = _number(sec["total_bandwidth"], "planner.total_bandwidth")
    sol = welfare.planner_optimal(B, params)
    report = {
        "case": sol.case_label.value,
        "b_macro": sol.b_macro,
        "b_small": sol.b_small,
        "b_unlicensed": sol.b_unlicensed,
        "welfare": sol.welfare,
    }
    if sol.alternative is not None:
        report["alternative"] = {
            "b_small": sol.alternative[0],
            "b_unlicensed": sol.alternative[1],
        }
    return report


def cmd_sweep(raw: dict, params: MarketParams, grid_override=None):
    sec = _section(raw, "sweep")
    _require_keys(sec, "sweep", ["total_bandwidth"], ["series", "grid"])
    B = _number(sec["total_bandwidth"], "sweep.total_bandwidth")
    series = sec.get("series", list(welfare.DEFAULT_SERIES))
    if not isinstance(series, list) or not all(isinstance(s, str) for s in series):
        raise ScenarioError(f"sweep.series: expected a list of series names, got {series!r}")
    points = grid_override if grid_override is not None else sec.get("grid", 201)
    grid = welfare.default_grid(B, _number(points, "sweep.grid", int))
    return welfare.welfare_sweep(B, grid, series, params), series


def sweep_csv(curve, series) -> str:
    kink_labels = [s for s in series if s != welfare.SERIES_PLANNER]
    header = ["b_u"] + list(series) + [f"kink_{s}" for s in kink_labels]
    kink_cells = [
        _fmt(curve.kinks[s]) if curve.kinks[s] is not None else "nan"
        for s in kink_labels
    ]
    lines = [",".join(header)]
    for i, b_u in enumerate(curve.grid):
        row = [_fmt(b_u)] + [_fmt(curve.series[s][i]) for s in series] + kink_cells
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_json(curve, series) -> dict:
    return {
        "grid": list(curve.grid),
        "series": {s: list(curve.series[s]) for s in series},
        "kinks": dict(curve.kinks),
    }


# Canonical scenario files matching the published parameter sets.
_FIGURE_SCENARIOS = {
    "fig2_nash_regions.json": {
        "schema_version": 1,
        "params": {"alpha": 0.5, "n_fixed": 50, "n_mobile": 50, "r0": 50,
                   "lambda_s": 4, "lambda_u": 3},
        "nash": {"bandwidths": [1.0, 1.0], "b_unlicensed": 1.0},
    },
    "fig3_equal_multipliers.json": {
        "schema_version": 1,
        "params": {"alpha": 0.5, "n_fixed": 50, "n_mobile": 50, "r0": 50,
                   "lambda_s": 4, "lambda_u": 4},
        "sweep": {"total_bandwidth": 2.0, "grid": 201,
                  "series": ["planner", "n1_rev", "n2", "ninf"]},
    },
    "fig4_unlicensed_strong.json": {
        "schema_version": 1,
        "params": {"alpha": 0.8, "n_fixed": 50, "n_mobile": 50, "r0": 50,
                   "lambda_s": 4, "lambda_u": 10},
        "sweep": {"total_bandwidth": 2.0, "grid": 201,
                  "series": ["planner", "n1_rev", "n2", "ninf"]},
    },
    "fig5_unlicensed_slight.json": {
        "schema_version": 1,
        "params": {"alpha": 0.8, "n_fixed": 50, "n_mobile": 50, "r0": 50,
                   "lambda_s": 4, "lambda_u": 4.5},
        "sweep": {"total_bandwidth": 2.0, "grid": 201,
                  "series": ["planner", "n1_rev", "n2", "ninf"]},
    },
}


def seed_figures(out_dir: str) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, scenario in _FIGURE_SCENARIOS.items():
        path = out / name
        path.write_text(json.dumps(scenario, indent=2) + "\n")
        written.append(str(path))
    return written


def _json(report) -> str:
    """``report`` as JSON text; a NaN or inf in it is a solver fault, exit 3."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SolverConsistencyError(f"the report holds a non-finite number ({exc})") from exc


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrum-market",
        description="Equilibrium and welfare computations for a two-tier "
                    "cellular market with unlicensed access.",
    )
    parser.add_argument(
        "--seed-figures", metavar="DIR",
        help="write the canonical figure scenario files to DIR and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("associate", "monopoly", "nash", "planner", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "sweep":
            p.add_argument("--grid", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.seed_figures:
        for path in seed_figures(args.seed_figures):
            print(path)
        return 0
    if not args.command:
        parser.print_help()
        return 0

    try:
        raw = load_scenario(args.scenario)
        params = scenario_params(raw)
        if args.command == "sweep":
            curve, series = cmd_sweep(raw, params, args.grid)
            if (args.format or "csv") == "csv":
                _emit(sweep_csv(curve, series), args.out)
            else:
                _emit(_json(sweep_json(curve, series)), args.out)
            return 0
        handler = {
            "associate": cmd_associate,
            "monopoly": cmd_monopoly,
            "nash": cmd_nash,
            "planner": cmd_planner,
        }[args.command]
        report = handler(raw, params)
        _emit(_json(report), args.out)
        return 0
    except MarketModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER if isinstance(exc, SolverConsistencyError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
