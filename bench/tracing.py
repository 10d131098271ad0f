"""Span recording for the traced benchmark run.

Spans are recorded only by wrappers that the benchmark installs on the
module-level bindings of ``spectrum_market`` (the public functions, and the
``brentq`` name each solver module imports) and removes afterwards.  Nothing
inside the package is edited.  Spans live in flat in-memory arrays and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# (defining module, function) pairs whose bindings are wrapped.  Every module
# of the package that imported the same function object gets the same wrapper,
# so calls are seen whichever binding the caller uses.
TRACED_FUNCTIONS = (
    ("cli", "load_scenario"),
    ("cli", "cmd_sweep"),
    ("cli", "sweep_csv"),
    ("welfare", "welfare_sweep"),
    ("welfare", "market_welfare"),
    ("welfare", "find_kink"),
    ("welfare", "optimal_split"),
    ("monopoly", "optimize_revenue"),
    ("monopoly", "optimize_welfare"),
    ("oligopoly", "solve_nash"),
    ("oligopoly", "best_response"),
    ("oligopoly", "symmetric_equilibrium"),
    ("oligopoly", "asymptotic_limit"),
    ("association", "solve_association"),
    ("oracle", "grid_argmax"),
    ("oracle", "payoff_equalization_fixed_point"),
)
# Functions whose first argument is a callback; its calls are counted as
# ``<span>.evals``.
COUNTED_CALLBACK = {"oracle.grid_argmax"}
# Modules whose ``brentq`` binding is wrapped as span ``rootfind.<module>``.
ROOTFIND_MODULES = ("monopoly", "oligopoly", "welfare")

PACKAGE = "spectrum_market"


class Tracer:
    """In-memory span store: name, start, end and parent per span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self.failures = Counter()  # (origin span name, exception type) -> n
        self.absent = {}           # span name -> reason it was not traced

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def id_of(self, name: str):
        return self._ids.get(name)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def note_failure(self, exc: BaseException) -> None:
        """Attribute ``exc`` to the innermost open span, once."""
        if getattr(exc, "_bench_origin", None) is not None:
            return
        origin = self.names[self.name_id[self._stack[-1]]] if self._stack else "op"
        try:
            exc._bench_origin = origin
        except AttributeError:
            pass
        self.failures[(origin, type(exc).__name__)] += 1

    def wrap(self, fn, name: str, count_first_arg: bool = False):
        nid = self.name_index(name)
        evals_key = name + ".evals"
        counts = self.counts

        def counted(callback):
            def inner(*a, **kw):
                counts[evals_key] += 1
                return callback(*a, **kw)
            return inner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                if count_first_arg:
                    args = (counted(args[0]),) + args[1:]
                return fn(*args, **kwargs)
            except Exception as exc:
                self.note_failure(exc)
                raise
            finally:
                self.close(idx)

        wrapper.__bench_original__ = fn
        return wrapper

    def span(self, name: str):
        return _Span(self, self.name_index(name))

    @property
    def n_spans(self) -> int:
        return len(self.start)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, Exception):
            self.tracer.note_failure(exc)
        self.tracer.close(self.idx)
        return False


class Installed:
    """Context manager: wrappers on every traced binding, restored on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        modules = {
            name[len(PACKAGE) + 1:] or "__init__": mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        try:
            for mod_name, fn_name in TRACED_FUNCTIONS:
                span = f"{mod_name}.{fn_name}"
                home = modules.get(mod_name)
                original = getattr(home, fn_name, None) if home is not None else None
                if original is None:
                    self.tracer.absent[span] = f"{PACKAGE}.{span} does not exist"
                    continue
                wrapper = self.tracer.wrap(
                    original, span, count_first_arg=span in COUNTED_CALLBACK
                )
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
            for mod_name in ROOTFIND_MODULES:
                span = f"rootfind.{mod_name}"
                mod = modules.get(mod_name)
                original = getattr(mod, "brentq", None) if mod is not None else None
                if original is None:
                    self.tracer.absent[span] = (
                        f"{PACKAGE}.{mod_name} has no brentq binding"
                    )
                    continue
                self._patch(mod, "brentq", original,
                            self.tracer.wrap(original, span, count_first_arg=True))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self, mod, attr, original, wrapper):
        self.saved.append((mod, attr, original))
        setattr(mod, attr, wrapper)

    def __exit__(self, exc_type, exc, tb):
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)
        return False


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of its children's spans.

    Children are clipped to their parent's interval, and overlapping children
    are merged so that no instant is subtracted twice.
    """
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            elif hi > run_hi:
                run_hi = hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def summarize(tracer: Tracer, call_prefix: str = "call."):
    """Aggregate spans by name, and by name and enclosing call kind.

    Returns ``{name: {"calls", "s", "self_s"}}`` and
    ``{(name, call kind): {"calls", "s", "self_s"}}``, where the call kind is
    the nearest enclosing span whose name starts with ``call_prefix``.
    """
    start, end, parent, name_id = tracer.start, tracer.end, tracer.parent, tracer.name_id
    selfs = self_times(start, end, parent)
    call_ids = {i for i, nm in enumerate(tracer.names) if nm.startswith(call_prefix)}
    call_of = array("i", [-1]) * len(start)
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_kind = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i in range(len(start)):
        nid = name_id[i]
        p = parent[i]
        call_of[i] = nid if nid in call_ids else (call_of[p] if p >= 0 else -1)
        name = tracer.names[nid]
        agg = by_name[name]
        agg["calls"] += 1
        agg["s"] += end[i] - start[i]
        agg["self_s"] += selfs[i]
        if call_of[i] >= 0:
            kind = tracer.names[call_of[i]][len(call_prefix):]
            agg = by_kind[(name, kind)]
            agg["calls"] += 1
            agg["s"] += end[i] - start[i]
            agg["self_s"] += selfs[i]
    return dict(by_name), dict(by_kind)
