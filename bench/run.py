"""Benchmark of the spectrum_market engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one seeded, single-process, closed-loop workload (one caller; the next
call starts when the previous one returns) over whole passes of its
operation pool until ``--seconds`` have elapsed, checks every output, and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (wrappers on the package's module-level
bindings, removed after each pass) and gives the per-layer metrics, with
counts and times per pass of the pool, and the tracing overhead.  The
program is imported from ``src/`` of the checkout that holds this file; the
run fails without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from scenarios import LOW_ALPHA, LOW_ALPHA_SHARE, ScenarioGenerator
from tracing import ROOTFIND_MODULES, Installed, Tracer, summarize
from workloads import (
    NASH_MIX,
    ORACLE_GRID_STEPS,
    OUT_DIR,
    PROLOGUES,
    WORKLOADS,
    CheckFailed,
    child_env,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import spectrum_market\n"
    "print(time.perf_counter() - t, 'scipy.optimize' in sys.modules, spectrum_market.__file__)\n"
)
SCIPY_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import scipy.optimize\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("op_cal", "cal"),
    ("ok_rate", "ratio"),
)

TRACED_CALLS_AND_SELF = (
    "monopoly.optimize_revenue",
    "monopoly.optimize_welfare",
    "oligopoly.symmetric_equilibrium",
    "oligopoly.asymptotic_limit",
    "oligopoly.best_response",
    "association.solve_association",
    "oracle.payoff_equalization_fixed_point",
)
FAILURE_TYPES = ("OverflowError", "SolverConsistencyError", "CheckFailed",
                 "ReferenceMismatch")
FAILURE_ORIGINS = (
    "oligopoly.solve_nash",
    "monopoly.optimize_revenue",
    "monopoly.optimize_welfare",
    "rootfind.monopoly",
    "rootfind.oligopoly",
)
PER_LAYER = (
    [("core.interp_start_s", "s"), ("core.scipy_import_s", "s"), ("core.import_s", "s"),
     ("cli.load_scenario.s", "s"), ("cli.cmd_sweep.s", "s"), ("cli.sweep_csv.s", "s"),
     ("cli.cold_sweep_remainder_s", "s"),
     ("welfare.welfare_sweep.self_s", "s"), ("welfare.market_welfare.calls", "count"),
     ("welfare.find_kink.s", "s"), ("welfare.optimal_split.self_s", "s"),
     ("welfare.optimal_split.evals", "count")]
    + [(f"{span}.{q}", unit) for span in TRACED_CALLS_AND_SELF
       for q, unit in (("calls", "count"), ("self_s", "s"))]
    + [("association.solve_association.calls_per_op", "count"),
       ("oligopoly.solve_nash.calls", "count")]
    + [(f"oligopoly.solve_nash.n{n}.self_s", "s") for n, _ in NASH_MIX]
    + [("oligopoly.solve_nash.kkt_max_rel", "ratio"),
       ("oracle.grid_argmax.self_s", "s"), ("oracle.grid_argmax.evals", "count")]
    + [(f"rootfind.{m}.{q}", "count") for m in ROOTFIND_MODULES for q in ("calls", "evals")]
    + [("failed.total", "count")]
    + [(f"failed.{t}", "count") for t in FAILURE_TYPES]
    + [("failed.other", "count")]
    + [(f"{o}.failed", "count") for o in FAILURE_ORIGINS]
    + [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
)


@dataclass
class Context:
    """Pool sizes of one run; ``--smoke`` shrinks them for the self-tests."""

    env: dict
    smoke_figures: tuple = ()
    nash_ops: int = 200
    oracle_ops: int = 60
    oracle_steps: int = ORACLE_GRID_STEPS
    # Fresh imports in one run spread 10-25% (IQR over median) with the
    # machine's load; ``setup_s`` is the median of this many, taken in groups
    # spread over the run.
    setup_samples: int = 8
    probe_samples: int = 3
    # Fresh processes that each measure an equal share of the run: an
    # operation's calibrated time differs by a few percent from one process
    # to the next, and the median over several processes averages that out.
    # Worker k measures the k-th pool drawn from the seed, so a run covers
    # this many times the generated scenarios of one pool.
    workers: int = 3


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    op_times: list = field(default_factory=list)
    op_cal: list = field(default_factory=list)
    cal_times: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: defaultdict(list))
    work: Counter = field(default_factory=Counter)
    work_time: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)      # (layer, type)
    band_attempted: Counter = field(default_factory=Counter)
    band_failed: Counter = field(default_factory=Counter)
    extras: dict = field(default_factory=lambda: defaultdict(list))
    first_error: dict = field(default_factory=dict)

    def fail(self, call, kind: str, message: str):
        self.failed += 1
        self.failures[(call.layer, kind)] += 1
        self.band_failed[call.band] += 1
        self.first_error.setdefault((call.layer, kind), message[:300])

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in (
            "attempted", "failed", "op_times", "op_cal", "cal_times", "times",
            "work", "work_time", "band_attempted", "band_failed", "extras")}
        out["failures"] = [[*key, n] for key, n in self.failures.items()]
        out["first_error"] = [[*key, m] for key, m in self.first_error.items()]
        return out

    def merge(self, d: dict):
        """Add the statistics a worker process reported with ``to_json``."""
        self.attempted += d["attempted"]
        self.failed += d["failed"]
        for name in ("op_times", "op_cal", "cal_times"):
            getattr(self, name).extend(d[name])
        for name in ("times", "extras"):
            for key, values in d[name].items():
                getattr(self, name)[key].extend(values)
        for name in ("work", "work_time", "band_attempted", "band_failed"):
            getattr(self, name).update(d[name])
        for layer, kind, n in d["failures"]:
            self.failures[(layer, kind)] += n
        for layer, kind, message in d["first_error"]:
            self.first_error.setdefault((layer, kind), message)


@dataclass(frozen=True)
class _CalibrationProfile:
    per_sp: tuple
    b_unlicensed: float


def _calibration_clearing(profile: _CalibrationProfile, alpha: float, r0: float) -> tuple:
    c_m = sum(bm for bm, _ in profile.per_sp) * r0
    c_s = 4.0 * sum(bs for _, bs in profile.per_sp) * r0
    c_u = 3.0 * profile.b_unlicensed * r0
    kap = alpha ** (1.0 / (1.0 - alpha))
    k_s = 50.0 * kap * c_s / (kap * c_s + c_u)
    r_s, r_m = c_s / k_s, c_m / 50.0
    welfare = (50.0 * r_m ** (1.0 - alpha) + k_s * r_s ** (1.0 - alpha)) / (1.0 - alpha)
    return r_m ** -alpha, r_s ** -alpha, welfare


def calibration_loop(n: int = 600) -> float:
    """Fixed pure-Python work written like the solvers: a frozen dataclass
    per step, generator sums and fractional powers in a closed-form clearing.

    On a shared 2-core machine, CPU speed changed by up to 2x for seconds at
    a time (identical work measured 36 ms and 70 ms in alternating phases).
    Each operation is timed between two runs of this loop, and the gated
    ``op_cal`` divides the operation's time by theirs, which cancels most of
    that drift.  The loop must never change, or ``op_cal`` loses its unit.
    """
    acc = 0.0
    for i in range(n):
        profile = _CalibrationProfile(
            tuple((1.0 + 1e-3 * i, 0.5 + 1e-4 * j) for j in range(2)), 0.25)
        acc += sum(_calibration_clearing(profile, 0.3 + 1e-4 * i, 50.0))
    return acc


def timed_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def run_pass(pool, stats: Stats, tracer: Tracer | None = None) -> float:
    """One closed-loop pass over the pool; returns its wall time."""
    clock = time.perf_counter
    t_pass = clock()
    cal_prev = timed_calibration()
    for op in pool:
        op_time = 0.0
        for call in op.calls:
            stats.attempted += 1
            stats.band_attempted[call.band] += 1
            span = None if tracer is None else tracer.span("call." + call.kind)
            t0 = clock()
            try:
                if span is None:
                    out = call.fn()
                else:
                    with span:
                        out = call.fn()
            except Exception as exc:  # every failure is tallied, none aborts the run
                op_time += clock() - t0
                where = traceback.extract_tb(exc.__traceback__)[-1]
                stats.fail(call, type(exc).__name__,
                           f"{exc!r} at {Path(where.filename).name}:{where.lineno}")
                continue
            dt = clock() - t0
            op_time += dt
            try:
                extras = call.check(out)
            except CheckFailed as exc:
                kind = type(exc).__name__
                stats.fail(call, kind, str(exc))
                if tracer is not None:
                    tracer.failures[(call.layer, kind)] += 1
                continue
            stats.times[call.kind].append(dt)
            stats.work[call.kind] += call.work
            stats.work_time[call.kind] += dt
            for key, value in extras.items():
                stats.extras[key].append(value)
        cal_next = timed_calibration()
        stats.op_times.append(op_time)
        stats.op_cal.append(op_time / (0.5 * (cal_prev + cal_next)))
        stats.cal_times.append(cal_next)
        cal_prev = cal_next
    return clock() - t_pass


def measure(pool, seconds: float, passes: int = 0) -> tuple:
    """Whole passes over the pool after one untimed operation that lets lazy
    set-up and caches warm: ``passes`` of them, or if 0, at least one,
    ending nearest to ``seconds`` measured."""
    run_pass(pool[:1], Stats())
    stats, done, measured = Stats(), 0, 0.0
    while (done < passes if passes
           else done == 0 or measured + 0.5 * measured / done < seconds):
        measured += run_pass(pool, stats)
        done += 1
    return stats, done


def describe(samples):
    """Median, the highest of p90/p99/p99.9 with at least ten samples beyond
    it (nearest rank), and the sample count."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s) if s else math.nan, "n": n}
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            out["pct"], out["pct_value"] = p, s[math.ceil(p / 100.0 * n) - 1]
    return out


def spawn_timed(argv, env) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout.split()


class Setup:
    """Fresh interpreters: bare start, and start plus ``import spectrum_market``.

    ``setup_s`` samples are taken in equal groups before, between and after
    the measuring worker processes, so that their median is not taken in one
    phase of the machine's speed.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rec = {"bare_start_s": [], "setup_s": [], "import_s": [],
                    "scipy_loaded": None, "scipy_import_s": [], "scipy_absent": None}

    def sample_import(self):
        wall, (inner, scipy_loaded, where) = spawn_timed(
            [sys.executable, "-c", IMPORT_PROBE], self.ctx.env)
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imported spectrum_market from {where}, not {SRC}")
        self.rec["setup_s"].append(wall)
        self.rec["import_s"].append(float(inner))
        self.rec["scipy_loaded"] = scipy_loaded == "True"

    def sample_until(self, n: int):
        while len(self.rec["setup_s"]) < n:
            self.sample_import()

    def probe_layers(self):
        """Interpreter start and scipy import, for the traced run."""
        py, env, n = sys.executable, self.ctx.env, self.ctx.probe_samples
        self.rec["bare_start_s"] = [spawn_timed([py, "-c", "pass"], env)[0] for _ in range(n)]
        if not self.rec["scipy_loaded"]:
            self.rec["scipy_absent"] = "import spectrum_market no longer loads scipy.optimize"
        else:
            self.rec["scipy_import_s"] = [
                float(spawn_timed([py, "-c", SCIPY_PROBE], env)[1][0]) for _ in range(n)]


def machine_record() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": list(os.getloadavg()),
    }


def workload_figures(name: str, stats: Stats, setup: dict, cold: Stats | None,
                     attempted: int, failed: int) -> list:
    """The workload's own figures, printed alongside the gated metrics."""
    rows = []

    def timing(label, kind, scale, unit, source=stats):
        d = describe(source.times.get(kind, []))
        rows.append((label, d["median"] * scale, unit, d, scale))

    if name == "figures_cold":
        d = describe(setup["setup_s"])
        rows.append(("setup_s", d["median"], "s", d, 1.0))
        timing("cold_sweep_s", "cold_sweep", 1.0, "s", source=cold)
        timing("inprocess_sweep_s", "inprocess_sweep", 1.0, "s")
    elif name == "welfare_warm":
        rate = stats.work["welfare_sweep"] / stats.work_time["welfare_sweep"] \
            if stats.work_time["welfare_sweep"] else math.nan
        rows.append(("sweep_points_per_s", rate, "1/s", None, 1.0))
        timing("optimal_split_ms", "optimal_split", 1e3, "ms")
    elif name == "nash_scaling":
        for n, _ in NASH_MIX:
            if n >= 500:
                timing(f"nash_n{n}_ms", f"nash_n{n}", 1e3, "ms")
            else:
                timing(f"nash_n{n}_us", f"nash_n{n}", 1e6, "us")
        total = sum(stats.work_time[f"nash_n{n}"] for n, _ in NASH_MIX)
        for n, _ in NASH_MIX:
            rows.append((f"nash_n{n}_time_share", stats.work_time[f"nash_n{n}"] / total
                         if total else math.nan, "ratio", None, 1.0))
    elif name == "oracle_verify":
        total = sum(stats.op_times)
        rows.append(("verified_scenarios_per_s",
                     stats.attempted / total if total else math.nan, "1/s", None, 1.0))
    rows.append(("error_rate", failed / attempted, "ratio", None, 1.0))
    return rows


def reference_mismatches(stats: Stats) -> int:
    """Outputs that differ from the recorded seed reference.  They make the
    run incorrect; every other failed check counts as a failed operation."""
    return sum(n for (_, kind), n in stats.failures.items() if kind == "ReferenceMismatch")


def print_rows(rows):
    for label, value, unit, d, scale in rows:
        tail = ""
        if d is not None:
            tail = f"  n={d['n']}"
            if "pct" in d:
                tail = f"  p{d['pct']:g}={d['pct_value'] * scale:.6g}" + tail
        print(f"  {label:<42} {value:>14.6g} {unit}{tail}")


def print_failures(stats: Stats):
    if not stats.failed:
        return
    print("failures by layer and type:")
    for (layer, kind), n in sorted(stats.failures.items()):
        print(f"  {layer:<34} {kind:<26} {n:>6}   e.g. {stats.first_error[(layer, kind)]}")
    print("failures by alpha band:")
    for band in sorted(stats.band_attempted):
        if band:
            print(f"  {band:<12} {stats.band_failed[band]:>6} of {stats.band_attempted[band]}")


def layer_metrics(tracer, traced: Stats, untraced: Stats, passes, setup,
                  cold: Stats | None, ops_per_pass):
    """Per-layer metrics, per pass of the pool; absent ones get a reason."""
    by_name, by_kind = summarize(tracer)
    absent = dict(tracer.absent)
    values = {}

    def per_pass(x):
        return x / passes

    def span(name, q):
        return per_pass(by_name.get(name, {}).get(q, 0))

    values["core.interp_start_s"] = statistics.median(setup["bare_start_s"])
    values["core.import_s"] = statistics.median(setup["import_s"])
    if setup["scipy_absent"]:
        values["core.scipy_import_s"] = 0.0
        absent["core.scipy_import"] = setup["scipy_absent"]
    else:
        values["core.scipy_import_s"] = statistics.median(setup["scipy_import_s"])
    for fn in ("load_scenario", "cmd_sweep", "sweep_csv"):
        values[f"cli.{fn}.s"] = span(f"cli.{fn}", "s")
    if cold is not None and cold.times.get("cold_sweep"):
        in_process = sum(values[f"cli.{fn}.s"] for fn in ("load_scenario", "cmd_sweep", "sweep_csv"))
        values["cli.cold_sweep_remainder_s"] = (
            statistics.median(cold.times["cold_sweep"]) - values["core.interp_start_s"]
            - values["core.import_s"] - in_process / ops_per_pass)
    else:
        values["cli.cold_sweep_remainder_s"] = 0.0
        absent["cli.cold_sweep_remainder"] = "no cold sweep in this workload"
    values["welfare.welfare_sweep.self_s"] = span("welfare.welfare_sweep", "self_s")
    values["welfare.market_welfare.calls"] = span("welfare.market_welfare", "calls")
    values["welfare.find_kink.s"] = span("welfare.find_kink", "s")
    values["welfare.optimal_split.self_s"] = span("welfare.optimal_split", "self_s")
    split_id = tracer.id_of("welfare.optimal_split")
    evals = 0
    if split_id is not None:
        objective_ids = {tracer.id_of("monopoly.optimize_revenue"),
                         tracer.id_of("oligopoly.symmetric_equilibrium")}
        for i in range(tracer.n_spans):
            p = tracer.parent[i]
            if p >= 0 and tracer.name_id[p] == split_id and tracer.name_id[i] in objective_ids:
                evals += 1
    values["welfare.optimal_split.evals"] = per_pass(evals)
    for s in TRACED_CALLS_AND_SELF:
        values[f"{s}.calls"] = span(s, "calls")
        values[f"{s}.self_s"] = span(s, "self_s")
    values["association.solve_association.calls_per_op"] = (
        values["association.solve_association.calls"] / ops_per_pass)
    values["oligopoly.solve_nash.calls"] = span("oligopoly.solve_nash", "calls")
    for n, _ in NASH_MIX:
        values[f"oligopoly.solve_nash.n{n}.self_s"] = per_pass(
            by_kind.get(("oligopoly.solve_nash", f"nash_n{n}"), {}).get("self_s", 0.0))
    kkt = traced.extras.get("kkt_rel", []) + untraced.extras.get("kkt_rel", [])
    values["oligopoly.solve_nash.kkt_max_rel"] = max(kkt) if kkt else 0.0
    values["oracle.grid_argmax.self_s"] = span("oracle.grid_argmax", "self_s")
    values["oracle.grid_argmax.evals"] = per_pass(tracer.counts["oracle.grid_argmax.evals"])
    for m in ROOTFIND_MODULES:
        values[f"rootfind.{m}.calls"] = span(f"rootfind.{m}", "calls")
        values[f"rootfind.{m}.evals"] = per_pass(tracer.counts[f"rootfind.{m}.evals"])
    values["failed.total"] = per_pass(traced.failed)
    by_type = Counter()
    for (_, kind), n in traced.failures.items():
        by_type[kind if kind in FAILURE_TYPES else "other"] += n
    for kind in FAILURE_TYPES + ("other",):
        values[f"failed.{kind}"] = per_pass(by_type[kind])
    by_origin = Counter()
    for (origin, _), n in tracer.failures.items():
        by_origin[origin] += n
    for o in FAILURE_ORIGINS:
        values[f"{o}.failed"] = per_pass(by_origin[o])
    # Calibrated medians, so that a change of machine speed between the
    # alternating passes does not read as tracing cost.
    values["trace.overhead_ratio"] = (statistics.median(traced.op_cal)
                                      / statistics.median(untraced.op_cal))
    values["trace.spans"] = per_pass(tracer.n_spans)
    return values, absent, by_origin


def write_spans(tracer: Tracer, path: Path):
    """Spans as a JSON header line followed by the raw arrays."""
    header = {"names": tracer.names, "n": tracer.n_spans,
              "arrays": [["name_id", "i", tracer.name_id.itemsize],
                         ["parent", "i", tracer.parent.itemsize],
                         ["start", "d", 8], ["end", "d", 8]]}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        for arr in (tracer.name_id, tracer.parent, tracer.start, tracer.end):
            arr.tofile(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and one figure, for the self-tests")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spectrum_market" / "__init__.py").is_file():
        print(f"error: no spectrum_market package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spectrum_market
    from spectrum_market import association, cli, monopoly, oligopoly, oracle, welfare  # noqa: F401
    if not Path(spectrum_market.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: spectrum_market imported from {spectrum_market.__file__}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    ctx = Context(env=child_env(SRC))
    if args.smoke:
        ctx = Context(env=ctx.env, smoke_figures=("fig4",), nash_ops=2, oracle_ops=2,
                      oracle_steps=201, setup_samples=1, probe_samples=1, workers=1)
    traced_run = args.trace == 1
    gen = ScenarioGenerator(args.seed)
    for _ in range(args.part + 1):
        pool = WORKLOADS[args.workload](gen, ctx)
    if args.worker:
        stats, passes = measure(pool, args.seconds, args.passes)
        print(json.dumps({"passes": passes, "stats": stats.to_json()}))
        return 0
    machine = machine_record()
    ops_per_pass = len(pool)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops/pass {ops_per_pass}  "
          f"alpha<{LOW_ALPHA:g} share {LOW_ALPHA_SHARE:g}")

    stats, cold, tracer = Stats(), None, None
    passes, measured = 0, 0.0
    if args.workload in PROLOGUES:
        cold = Stats()
        run_pass(PROLOGUES[args.workload](gen, ctx), cold)
    if not traced_run:
        setup = Setup(ctx)
        worker = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", repr(args.seconds / ctx.workers),
                  "--worker"] + (["--smoke"] if args.smoke else [])
        # Every worker makes as many passes as the first, so that failure
        # counts and ``ok_rate`` repeat exactly at a fixed seed.
        passes_each = 0
        for i in range(ctx.workers):
            setup.sample_until(ctx.setup_samples * (i + 1) // (ctx.workers + 1))
            proc = subprocess.run(worker + ["--part", str(i), "--passes", str(passes_each)],
                                  capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"measuring worker exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-1000:]}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            stats.merge(out["stats"])
            passes += out["passes"]
            passes_each = passes_each or out["passes"]
        setup.sample_until(ctx.setup_samples)
        setup.rec["bare_start_s"] = [spawn_timed([sys.executable, "-c", "pass"], ctx.env)[0]
                                     for _ in range(ctx.probe_samples)]
    else:
        setup = Setup(ctx)
        setup.sample_until(ctx.probe_samples)
        setup.probe_layers()
        run_pass(pool[:1], Stats())
        tracer, traced = Tracer(), Stats()
        while measured < args.seconds:
            measured += run_pass(pool, stats)
            with Installed(tracer):
                measured += run_pass(pool, traced, tracer)
            passes += 1
    setup = setup.rec
    machine["loadavg_after"] = list(os.getloadavg())

    print(f"python {machine['python']}  numpy {machine['numpy']}  scipy {machine['scipy']}  "
          f"nproc {machine['nproc']}  loadavg before {machine['loadavg_before'][0]:.2f} "
          f"after {machine['loadavg_after'][0]:.2f}  "
          f"bare interpreter start {statistics.median(setup['bare_start_s']):.4f} s  "
          f"passes {passes}")
    hashes = (cold.extras.get("hash_match", []) if cold else []) + stats.extras.get("hash_match", [])
    if hashes:
        print(f"reference CSV hashes match exactly: {all(hashes)} ({sum(hashes)}/{len(hashes)})")
    classes = Counter(stats.extras.get("class", []))
    if classes:
        print("equilibrium classes: " + ", ".join(f"{k} {v}" for k, v in sorted(classes.items())))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "passes": passes,
              "ops_per_pass": ops_per_pass, "machine": machine, "setup": setup,
              "failures": {f"{layer}|{kind}": n for (layer, kind), n in stats.failures.items()},
              "first_error": {f"{layer}|{kind}": m for (layer, kind), m in stats.first_error.items()},
              "failures_by_band": dict(stats.band_failed),
              "attempted_by_band": dict(stats.band_attempted)}
    mismatches = reference_mismatches(stats)
    attempted, failed = stats.attempted, stats.failed
    if cold is not None:
        attempted, failed = attempted + cold.attempted, failed + cold.failed
        mismatches += reference_mismatches(cold)
        report["prologue_failures"] = {f"{layer}|{kind}": n
                                       for (layer, kind), n in cold.failures.items()}

    if not traced_run:
        op, op_cal = describe(stats.op_times), describe(stats.op_cal)
        setup_d = describe(setup["setup_s"])
        ok_rate = (attempted - failed) / attempted
        gated = {"setup_s": (setup_d["median"], setup_d), "op_cal": (op_cal["median"], op_cal),
                 "ok_rate": (ok_rate, None)}
        metrics = {name: {"value": gated[name][0], "unit": unit} for name, unit in END_TO_END}
        print("end-to-end (gated):")
        print_rows([(name, gated[name][0], unit, gated[name][1], 1.0) for name, unit in END_TO_END])
        print("end-to-end (not gated: raw wall time moves with the machine's speed):")
        cal = describe(stats.cal_times)
        print_rows([("op_ms", op["median"] * 1e3, "ms", op, 1e3),
                    ("calibration_ms", cal["median"] * 1e3, "ms", cal, 1e3)])
        report["op_ms"], report["op_cal"], report["calibration_ms"] = op, op_cal, cal
        report["samples"] = {"op_s": stats.op_times, "calibration_s": stats.cal_times}
        print(f"{args.workload} figures:")
        figure_rows = workload_figures(args.workload, stats, setup, cold, attempted, failed)
        print_rows(figure_rows)
        report["figures"] = {r[0]: {"value": r[1], "unit": r[2], "dist": r[3]}
                             for r in figure_rows}
    else:
        values, absent, by_origin = layer_metrics(
            tracer, traced, stats, passes, setup, cold, ops_per_pass)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        print("per layer (per pass of the pool):")
        for name, unit in PER_LAYER:
            print(f"  {name:<46} {values[name]:>14.6g} {unit}")
        for what, reason in sorted(absent.items()):
            print(f"  absent: {what}: {reason}")
        if by_origin:
            print("traced failures by originating span and type:")
            for (origin, kind), n in sorted(tracer.failures.items()):
                print(f"  {origin:<34} {kind:<26} {n:>6}")
        report["absent"] = absent
        report["per_layer"] = values
        write_spans(tracer, OUT_DIR / f"{args.workload}.spans")
        mismatches += reference_mismatches(traced)
        attempted, failed = attempted + traced.attempted, failed + traced.failed
    if cold is not None:
        print_failures(cold)
    print_failures(stats)

    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    result = {"correct": mismatches == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
