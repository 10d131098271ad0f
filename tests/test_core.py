import dataclasses
import gc
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import spectrum_market
from spectrum_market.core import (
    ALPHA_MAX,
    ALPHA_MIN,
    DomainError,
    MarketParams,
    SolverConsistencyError,
    brentq,
    demand,
    kappa,
    net_payoff,
    utility,
)

alphas = st.floats(min_value=0.05, max_value=0.95)
prices = st.floats(min_value=1e-3, max_value=1e3)


def test_utility_examples():
    assert utility(0.0, 0.5) == 0.0
    assert utility(1.0, 0.5) == pytest.approx(2.0)
    assert utility(4.0, 0.5) == pytest.approx(4.0)


def test_demand_examples():
    assert demand(1.0, 0.3) == pytest.approx(1.0)
    assert demand(2.0, 0.5) == pytest.approx(0.25)
    assert demand(0.25, 0.5) == pytest.approx(16.0)


def test_net_payoff_examples():
    assert net_payoff(1.0, 0.5) == pytest.approx(1.0)
    assert net_payoff(4.0, 0.5) == pytest.approx(0.25)


def test_kappa_examples():
    assert kappa(0.5) == pytest.approx(0.25)
    assert kappa(0.8) == pytest.approx(0.32768)
    # logarithmic-utility limit is 1/e
    assert kappa(1 - 1e-9) == pytest.approx(math.exp(-1), rel=1e-6)


@given(alphas, prices)
def test_net_payoff_definitional_identity(alpha, p):
    r = demand(p, alpha)
    assert net_payoff(p, alpha) == pytest.approx(
        utility(r, alpha) - p * r, rel=1e-12, abs=1e-300
    )


@given(alphas, prices, prices)
def test_demand_strictly_decreasing(alpha, p1, p2):
    if p1 == p2:
        return
    lo, hi = sorted((p1, p2))
    assert demand(lo, alpha) > demand(hi, alpha)


@given(alphas, st.floats(min_value=1e-2, max_value=1e2))
def test_utility_increasing_and_concave(alpha, r):
    h = 1e-4 * r
    f0, fp, fm = utility(r, alpha), utility(r + h, alpha), utility(r - h, alpha)
    assert fp > f0 > fm
    assert fp - 2 * f0 + fm < 0  # second difference negative


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_kappa_below_one(alpha):
    assert 0 < kappa(alpha) < 1


def test_domain_errors():
    with pytest.raises(DomainError):
        demand(0.0, 0.5)
    with pytest.raises(DomainError):
        demand(-1.0, 0.5)
    with pytest.raises(DomainError):
        net_payoff(0.0, 0.5)
    with pytest.raises(DomainError):
        utility(-1.0, 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(alpha=1.5),
        dict(n_fixed=0.0),
        dict(n_mobile=-1.0),
        dict(r0=0.0),
        dict(lambda_s=1.0),
        dict(lambda_s=0.5),
        dict(lambda_u=0.0),
        dict(alpha="0.5"),
        dict(n_fixed=math.nan),
        dict(r0=math.inf),
        dict(lambda_s=None),
    ],
)
def test_market_params_validation(kwargs):
    base = dict(alpha=0.5, n_fixed=50, n_mobile=50, r0=50, lambda_s=4, lambda_u=3)
    base.update(kwargs)
    with pytest.raises(DomainError):
        MarketParams(**base)


def test_market_params_kappa_property():
    p = MarketParams(alpha=0.5, n_fixed=50, n_mobile=50, r0=50, lambda_s=4, lambda_u=3)
    assert p.kappa == pytest.approx(0.25) and p.kappa == kappa(0.5)
    # dataclasses.replace recomputes the cached value from the new alpha
    for alpha in (ALPHA_MIN, 0.1, 0.8, 0.97, ALPHA_MAX):
        assert dataclasses.replace(p, alpha=alpha).kappa == kappa(alpha)
    assert dataclasses.replace(p, r0=7.0).kappa == p.kappa


def test_market_params_kappa_outside_repr_eq_and_hash():
    args = dict(alpha=0.8, n_fixed=50, n_mobile=50, r0=50, lambda_s=4, lambda_u=3)
    p, q = MarketParams(**args), MarketParams(**args)
    assert "kappa" not in repr(p)
    object.__setattr__(q, "kappa", 0.0)  # a cached value that equality must not read
    assert p == q and hash(p) == hash(q)
    with pytest.raises(TypeError):
        MarketParams(**args, kappa=0.1)


# (xtol, rtol) pairs brentq is checked at: those monopoly, oligopoly and
# welfare pass, and absolute tolerances around them; None is the default rtol.
PACKAGE_TOLERANCES = [
    (4e-16, 8.9e-16), (1e-15, 8.9e-16), (1e-13, 8.9e-16), (1e-14, 8.9e-16), (1e-16, 8.9e-16),
    (1e-14, None), (1e-10, None),
]


def _root_problems(rng):
    """Sign-changing functions of several shapes and scales, with brackets."""
    for _ in range(40):
        r, s = rng.uniform(-4, 4), 10 ** rng.uniform(-150, 150)
        k, p = 10 ** rng.uniform(-2, 2), rng.uniform(0.2, 4.0)
        a, b = rng.uniform(-9, -5), rng.uniform(5, 9)
        if rng.random() < 0.5:
            a, b = b, a
        yield lambda x: s * ((x - r) ** 3 + k * (x - r)), a, b
        yield lambda x: s * math.tanh(k * (x - r)), a, b
        yield lambda x: math.copysign(abs(x - r) ** p, x - r), a, b
        yield lambda x: math.exp(min(k * (x - r), 700.0)) - 1.0, a, b


@pytest.mark.parametrize("xtol,rtol", PACKAGE_TOLERANCES)
def test_brentq_matches_scipy(xtol, rtol):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    kw = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
    for f, a, b in _root_problems(random.Random(int(-math.log10(xtol)))):
        calls = [0, 0]

        def counted(i):
            def g(x):
                calls[i] += 1
                return f(x)
            return g

        try:
            want = scipy_optimize.brentq(counted(1), a, b, **kw)
        except RuntimeError:  # no convergence in 100 iterations
            with pytest.raises(SolverConsistencyError):
                brentq(counted(0), a, b, **kw)
        else:
            assert brentq(counted(0), a, b, **kw) == want
        assert calls[0] == calls[1]


@pytest.mark.parametrize("xtol,rtol", PACKAGE_TOLERANCES)
def test_brentq_makes_no_call_but_f(xtol, rtol):
    """Each evaluation is one direct call of f, as many as scipy counts, and
    brentq makes no other Python-level call (no per-evaluation wrapper)."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    kw = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
    # a collection inside the profiled window would record the gc callbacks too
    gc.collect()
    gc.disable()
    try:
        for f, a, b in _root_problems(random.Random(int(-math.log10(xtol)))):
            _, info = scipy_optimize.brentq(f, a, b, full_output=True, disp=False, **kw)
            calls = Counter()

            def profile(frame, event, arg):
                if event == "call":
                    calls[frame.f_code] += 1

            converged = True
            sys.setprofile(profile)
            try:
                brentq(f, a, b, **kw)
            except SolverConsistencyError:  # no convergence in 100 iterations
                converged = False
            finally:
                sys.setprofile(None)
            assert converged == info.converged
            assert calls.pop(brentq.__code__) == 1
            assert calls == Counter({f.__code__: info.function_calls})
    finally:
        gc.enable()


def test_brentq_args_and_exact_endpoint():
    assert brentq(lambda x, c: x * x - c, 0.0, 3.0, args=(2.0,), xtol=1e-15) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert brentq(lambda x: x - 1.0, 1.0, 5.0, xtol=1e-12) == 1.0


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * x + 1.0, -1.0, 1.0),                  # same-sign bracket
    (lambda x: math.nan if x > 0.3 else -1.0, 0.0, 1.0),  # NaN value
    (lambda x: 1.0 if x > 0.1 else -1.0, -1e300, 1e300),  # 100 bisections fall short
])
def test_brentq_failures_raise_solver_consistency_error(f, a, b):
    with pytest.raises(SolverConsistencyError):
        brentq(f, a, b, xtol=1e-300)


def test_import_loads_neither_scipy_nor_numpy():
    src = str(Path(spectrum_market.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spectrum_market; "
        "print(sorted({'scipy', 'numpy'} & {m.split('.')[0] for m in sys.modules}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
