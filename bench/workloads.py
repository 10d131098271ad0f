"""The four benchmark workloads and the checks on their outputs.

A workload is a pool of operations built from the seed.  An operation is one
closed-loop request made of one or more calls; each call is timed on its own
and its output is checked against a reference, an oracle or an identity.
Every workload stresses one layer and leaves the others nearly idle:

- figures_cold:  a reader reproducing Figs. 3-5, one fresh ``sweep`` process
                 each; import and interpreter start dominate (``core``,
                 ``cli``).
- welfare_warm:  the same figures' welfare curves and optimal splits in one
                 warm process; the per-point loop in ``welfare``, ``monopoly``
                 and ``oligopoly.symmetric_equilibrium``.
- nash_scaling:  ``oligopoly.solve_nash`` at N = 2, 50 and 500 on seeded
                 random profiles; the active-set search that no sweep calls.
- oracle_verify: solver answers cross-checked by the brute-force oracles;
                 millions of small ``association.solve_association`` calls.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from scenarios import ScenarioGenerator, alpha_band

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

FIGURES = ("fig3", "fig4", "fig5")
SWEEP_GRID = 2001
SPLIT_PROVIDERS = (1, 2, 8)
REL_TOL = 1e-12
# N -> calls per nash_scaling operation.  The gate is the median operation,
# and solve_nash times are heavy-tailed (mean over median: 1.1 at N = 2, 2.9
# at N = 50, 9 at N = 500, where about a third of the calls take 7-50 ms and
# the rest 0.8-1.7 ms), so the mix is set by how far a 2x slowdown of one N
# moves that median, and by how little the median moves from seed to seed.
# At the seed commit (seeds 1-6, 1 200 operations) a 2x slowdown moves it by
# 45-46% (N = 2), 28-32% (N = 50) and 23% (N = 500); the shares of the total
# solve time are 15-17%, 10-11% and 72-75%.
NASH_MIX = ((2, 30), (50, 3), (500, 1))
# Relative KKT residual accepted as a correct equilibrium; the residual is
# scaled by the magnitude of the marginal-revenue terms it is made of.
KKT_REL_BOUND = 1e-4
ORACLE_GRID_STEPS = 2001
FIXED_POINT_EVERY = 4
BEST_RESPONSE_REL_TOL = 1e-4
FIXED_POINT_REL_TOL = 1e-6


class CheckFailed(Exception):
    """An output check or an oracle comparison failed."""


class ReferenceMismatch(CheckFailed):
    """A deterministic output differs from the recorded seed reference."""


@dataclass
class Call:
    kind: str                      # timing bucket, e.g. "nash_n50"
    layer: str                     # public function the call exercises
    fn: Callable[[], Any]          # the timed work
    check: Callable[[Any], dict]   # untimed; raises CheckFailed
    work: float = 1.0              # work units, for throughput figures
    band: str = ""                 # alpha band of generated inputs


@dataclass
class Op:
    calls: list = field(default_factory=list)


# --------------------------------------------------------------- references

def load_reference(name: str):
    path = REFERENCE_DIR / name
    if name.endswith(".gz"):
        with gzip.open(path, "rt") as fh:
            return fh.read() if name.endswith(".csv.gz") else json.load(fh)
    return json.loads(path.read_text())


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    if got == want:
        return True
    if math.isnan(got) and math.isnan(want):
        return True
    return abs(got - want) <= rel * max(abs(got), abs(want))


def compare_csv(got: str, want: str) -> bool:
    """Cell-by-cell comparison within REL_TOL; returns whether bytes match."""
    if got == want:
        return True
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        raise ReferenceMismatch("sweep CSV shape or header differs from reference")
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), 1):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        if len(g_cells) != len(w_cells):
            raise ReferenceMismatch(f"sweep CSV row {r} has {len(g_cells)} cells")
        for g, w in zip(g_cells, w_cells):
            if not close(float(g), float(w)):
                raise ReferenceMismatch(f"sweep CSV row {r}: {g} != {w}")
    return False


def compare_values(got, want, where: str):
    if want is None or isinstance(want, bool):
        if got != want:
            raise ReferenceMismatch(f"{where}: {got!r} != {want!r}")
        return
    if got is None or not close(float(got), float(want)):
        raise ReferenceMismatch(f"{where}: {got!r} != {want!r}")


# ------------------------------------------------------------ figures_cold

def figure_scenarios(reference: dict) -> dict:
    """Write the recorded figure scenario files; returns figure -> path."""
    scen_dir = OUT_DIR / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fig in FIGURES:
        entry = reference["figures"][fig]
        path = scen_dir / entry["scenario_file"]
        path.write_text(json.dumps(entry["scenario"], indent=2) + "\n")
        paths[fig] = path
    return paths


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def cold_sweep_call(fig: str, scenario: Path, want_csv: str, env: dict) -> Call:
    out = OUT_DIR / f"{fig}_sweep.csv"
    argv = [sys.executable, "-m", "spectrum_market.cli", "sweep",
            "--scenario", str(scenario), "--grid", str(SWEEP_GRID),
            "--format", "csv", "--out", str(out)]

    def run():
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"sweep exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return out

    def check(path):
        return {"hash_match": compare_csv(path.read_text(), want_csv)}

    return Call(kind="cold_sweep", layer="cli.main", fn=run, check=check)


def build_cold_sweeps(gen: ScenarioGenerator, ctx) -> list:
    """One fresh ``sweep`` process per figure, run once before the timed passes."""
    reference = load_reference("figures.json")
    paths = figure_scenarios(reference)
    figs = ctx.smoke_figures or FIGURES
    return [
        Op([cold_sweep_call(fig, paths[fig],
                            load_reference(reference["figures"][fig]["csv"]),
                            ctx.env)])
        for fig in figs
    ]


def build_figures_cold(gen: ScenarioGenerator, ctx) -> list:
    """The ``sweep`` command's work after import: load, sweep, format CSV.

    Timed in-process because a fresh process's time could not be calibrated
    (see ``calibration_loop`` in run.py; calibrated cold sweeps still spread
    over 20% between runs).  The fresh processes run once per run as the
    prologue, and interpreter start plus import is ``setup_s``.
    """
    from spectrum_market import cli

    reference = load_reference("figures.json")
    paths = figure_scenarios(reference)
    pool = []
    for fig in ctx.smoke_figures or FIGURES:
        want_csv = load_reference(reference["figures"][fig]["csv"])

        def sweep(path=str(paths[fig])):
            raw = cli.load_scenario(path)
            curve, series = cli.cmd_sweep(raw, cli.scenario_params(raw), SWEEP_GRID)
            return cli.sweep_csv(curve, series)

        pool.append(Op([Call("inprocess_sweep", "cli.cmd_sweep", sweep,
                             lambda got, want=want_csv: {"hash_match": compare_csv(got, want)})]))
    return pool


# ------------------------------------------------------------ welfare_warm

def build_welfare_warm(gen: ScenarioGenerator, ctx) -> list:
    from spectrum_market import welfare
    from spectrum_market.core import MarketParams

    scenarios = load_reference("figures.json")["figures"]
    reference = load_reference("welfare_warm.json.gz")
    pool = []
    for fig in ctx.smoke_figures or FIGURES:
        raw = scenarios[fig]["scenario"]
        B = raw["sweep"]["total_bandwidth"]
        grid = welfare.default_grid(B, SWEEP_GRID)
        want = reference["figures"][fig]
        series = tuple(want["sweep"]["series"])

        def sweep(B=B, grid=grid, series=series, raw=raw):
            return welfare.welfare_sweep(B, grid, series, MarketParams(**raw["params"]))

        def check_sweep(curve, want=want["sweep"], fig=fig):
            for label, values in want["series"].items():
                got = curve.series[label]
                if len(got) != len(values):
                    raise ReferenceMismatch(f"{fig} {label}: {len(got)} points")
                for i, (g, w) in enumerate(zip(got, values)):
                    compare_values(g, w, f"{fig} {label}[{i}]")
            for label, kink in want["kinks"].items():
                compare_values(curve.kinks.get(label), kink, f"{fig} kink {label}")
            return {}

        calls = [Call("welfare_sweep", "welfare.welfare_sweep", sweep, check_sweep,
                      work=len(grid) * len(series))]
        for n in SPLIT_PROVIDERS:
            def split(B=B, n=n, raw=raw):
                return welfare.optimal_split(B, n, MarketParams(**raw["params"]))

            def check_split(got, want=want["optimal_split"][str(n)], fig=fig, n=n):
                for g, w, what in zip(got, want, ("b_licensed", "b_unlicensed", "efficient")):
                    compare_values(g, w, f"{fig} optimal_split n={n} {what}")
                return {}

            calls.append(Call("optimal_split", "welfare.optimal_split", split, check_split))
        pool.append(Op(calls))
    return pool


# ------------------------------------------------------------ nash_scaling

def kkt_rel(per_sp, outcome, b_u: float, p: dict) -> float:
    """Largest scaled KKT residual of the providers' macro/small split.

    Marginal revenues are rebuilt here from the outcome's rates, so the check
    does not reuse the solver's own residuals.  An interior provider needs
    equal marginals; a macro-only one needs no gain from entering small-cells.
    """
    a, r0, n_f, n_m, lam_s = p["alpha"], p["r0"], p["n_fixed"], p["n_mobile"], p["lambda_s"]
    kap = a ** (1.0 / (1.0 - a))
    r_m = outcome.r_macro
    r_s = outcome.r_small if outcome.k_small > 0 else (
        p["lambda_u"] * b_u * r0 / (kap * n_f))
    if r_s <= 0.0 or r_m <= 0.0:
        raise CheckFailed("non-positive equilibrium rate")
    worst = 0.0
    for bm, bs in per_sp:
        m_macro_terms = (r_m ** (-a), a * (bm * r0 / n_m) * r_m ** (-a - 1.0))
        m_small_terms = (lam_s * r_s ** (-a),
                         lam_s * a * (lam_s * bs * r0 / n_f) * r_s ** (-a - 1.0))
        gain = (m_small_terms[0] - m_small_terms[1]) - (m_macro_terms[0] - m_macro_terms[1])
        scale = sum(m_macro_terms) + sum(m_small_terms)
        rel = gain / scale
        worst = max(worst, abs(rel) if bs > 0 else rel)
    return worst


def check_nash_result(res, bw: list, b_u: float, p: dict) -> dict:
    per_sp = res.profile.per_sp
    if len(per_sp) != len(bw):
        raise CheckFailed(f"{len(per_sp)} providers returned for {len(bw)}")
    for i, ((bm, bs), b) in enumerate(zip(per_sp, bw)):
        if not bm > 0.0 or not bs >= 0.0:
            raise CheckFailed(f"provider {i}: b_m={bm!r}, b_s={bs!r}")
        if abs(bm + bs - b) > 1e-12 * b:
            raise CheckFailed(f"provider {i}: b_m + b_s = {bm + bs!r} != {b!r}")
    try:
        rel = kkt_rel(per_sp, res.outcome, b_u, p)
    except (ArithmeticError, ValueError) as exc:
        raise CheckFailed(f"KKT residual not computable: {exc!r}") from exc
    if not rel <= KKT_REL_BOUND:
        raise CheckFailed(f"relative KKT residual {rel:.3e} > {KKT_REL_BOUND:g}")
    return {"kkt_rel": rel, "class": res.classification.value}


def nash_call(n: int, gen: ScenarioGenerator) -> Call:
    from spectrum_market import oligopoly
    from spectrum_market.core import MarketParams

    p = gen.params()
    bw = gen.bandwidths(n)
    b_u = gen.unlicensed(sum(bw))

    def solve():
        return oligopoly.solve_nash(bw, b_u, MarketParams(**p))

    return Call(f"nash_n{n}", "oligopoly.solve_nash", solve,
                lambda res: check_nash_result(res, bw, b_u, p), band=alpha_band(p))


def build_nash_scaling(gen: ScenarioGenerator, ctx) -> list:
    return [
        Op([nash_call(n, gen) for n, reps in NASH_MIX for _ in range(reps)])
        for _ in range(ctx.nash_ops)
    ]


# ----------------------------------------------------------- oracle_verify

def monopoly_verify_call(gen: ScenarioGenerator, steps: int) -> Call:
    from spectrum_market import association, monopoly, oracle
    from spectrum_market.core import MarketParams

    p = gen.params()
    (B,) = gen.bandwidths(1)
    b_u = gen.unlicensed(B)

    def verify():
        params = MarketParams(**p)
        spec = oracle.GridSpec(0.0, B * (1 - 1e-6), steps)
        found = []
        for objective in ("revenue", "welfare"):
            if objective == "revenue":
                sol = monopoly.optimize_revenue(B, b_u, params)
            else:
                sol = monopoly.optimize_welfare(B, b_u, params)

            def value(b_s, objective=objective):
                out = association.solve_association(
                    association.AllocationProfile([(B - b_s, b_s)], b_u), params)
                return out.revenue_per_sp[0] if objective == "revenue" else out.social_welfare

            x, _ = oracle.grid_argmax(value, spec)
            found.append((objective, sol.b_small, x))
        return found

    def check(found):
        tol = 2.0 * B / (steps - 1)
        for objective, b_small, x in found:
            if not abs(b_small - x) <= tol:
                raise CheckFailed(f"{objective}: solver b_small={b_small!r}, "
                                  f"grid oracle {x!r} (tolerance {tol:.3g})")
        return {}

    return Call("verify_monopoly", "monopoly.optimize_revenue", verify, check,
                band=alpha_band(p))


def nash_verify_call(gen: ScenarioGenerator, with_fixed_point: bool) -> Call:
    from spectrum_market import association, oligopoly, oracle
    from spectrum_market.core import MarketParams

    p = gen.params()
    bw = gen.bandwidths(gen.integer(1, 3))
    b_u = gen.unlicensed(sum(bw))

    def verify():
        params = MarketParams(**p)
        res = oligopoly.solve_nash(bw, b_u, params)
        brs = [oligopoly.best_response(i, res.profile, params) for i in range(len(bw))]
        fixed = None
        if with_fixed_point:
            fixed = (association.solve_association(res.profile, params),
                     oracle.payoff_equalization_fixed_point(res.profile, params))
        return res, brs, fixed

    def check(found):
        res, brs, fixed = found
        extras = check_nash_result(res, bw, b_u, p)
        for i, (br, (_, b_s)) in enumerate(zip(brs, res.profile.per_sp)):
            if not abs(br - b_s) <= BEST_RESPONSE_REL_TOL * bw[i]:
                raise CheckFailed(f"provider {i}: equilibrium b_s={b_s!r}, "
                                  f"best response {br!r}")
        if fixed is not None:
            solved, fp = fixed
            if solved.regime is not fp.regime:
                raise CheckFailed(f"regime {solved.regime} != fixed point {fp.regime}")
            n_t = p["n_fixed"] + p["n_mobile"]
            for what in ("k_macro", "k_small", "k_unlicensed"):
                if not abs(getattr(solved, what) - getattr(fp, what)) <= FIXED_POINT_REL_TOL * n_t:
                    raise CheckFailed(f"{what}: {getattr(solved, what)!r} != "
                                      f"fixed point {getattr(fp, what)!r}")
            if not close(solved.p_macro, fp.p_macro, FIXED_POINT_REL_TOL):
                raise CheckFailed(f"p_macro {solved.p_macro!r} != fixed point {fp.p_macro!r}")
        return extras

    return Call("verify_nash", "oligopoly.solve_nash", verify, check, band=alpha_band(p))


def build_oracle_verify(gen: ScenarioGenerator, ctx) -> list:
    return [
        Op([monopoly_verify_call(gen, ctx.oracle_steps),
            nash_verify_call(gen, with_fixed_point=k % FIXED_POINT_EVERY == 0)])
        for k in range(ctx.oracle_ops)
    ]


WORKLOADS = {
    "figures_cold": build_figures_cold,
    "welfare_warm": build_welfare_warm,
    "nash_scaling": build_nash_scaling,
    "oracle_verify": build_oracle_verify,
}
# Operations run once, untimed by ``op_cal``, before a workload's passes.
PROLOGUES = {"figures_cold": build_cold_sweeps}
