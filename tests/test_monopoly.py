import math
import random

import pytest

from spectrum_market.core import DomainError, MarketParams, SolverConsistencyError, brentq
from spectrum_market.monopoly import (
    Objective,
    beta_tilde,
    crossover_beta,
    optimize_revenue,
    optimize_welfare,
    threshold_crossover,
    threshold_rev,
    threshold_sw,
)
from spectrum_market.association import AllocationProfile, Regime, solve_association
from spectrum_market.oracle import GridSpec, grid_argmax

from conftest import random_params, single_provider_draws

# Interior reference instance: B=2 licensed, B_U=0.5 under the base parameters.
# Optima frozen from a 1e-4-step grid search refined by bisection.
_B_SMALL_REV = 1.640424803691373
_B_SMALL_SW = 1.5163384790381091


def _objective(B, b_u, params, objective):
    def value(b_s):
        out = solve_association(AllocationProfile([(B - b_s, b_s)], b_u), params)
        if objective is Objective.REVENUE:
            return out.revenue_per_sp[0]
        return out.social_welfare

    return value


class TestThresholds:
    def test_base_values(self, base_params):
        assert threshold_rev(2.0, base_params) == pytest.approx(1600.0)
        assert threshold_sw(2.0, base_params) == pytest.approx(900.0)

    def test_sw_below_rev_on_grid(self):
        rng = random.Random(5)
        for _ in range(50):
            params = random_params(rng)
            assert threshold_sw(1.0, params) < threshold_rev(1.0, params)

    def test_diverge_as_alpha_vanishes(self):
        params = MarketParams(alpha=1e-6, n_fixed=50, n_mobile=50, r0=50,
                              lambda_s=4, lambda_u=3)
        assert threshold_rev(2.0, params) > 1e12
        assert threshold_sw(2.0, params) > 1e12


class TestOptimizeRevenue:
    def test_no_unlicensed_closed_form(self, base_params):
        # b_small = beta_tilde * B when there is no unlicensed band
        assert beta_tilde(base_params) == pytest.approx(0.8)
        for B in (0.5, 2.0, 7.0):
            sol = optimize_revenue(B, 0.0, base_params)
            assert sol.b_small == pytest.approx(0.8 * B, rel=1e-9)
            assert not sol.boundary

    def test_boundary_above_threshold(self, base_params):
        c_u = 1.01 * threshold_rev(2.0, base_params)
        b_u = c_u / (base_params.lambda_u * base_params.r0)
        sol = optimize_revenue(2.0, b_u, base_params)
        assert sol.boundary
        assert sol.b_small == 0.0
        assert sol.b_macro == 2.0

    def test_interior_frozen_value(self, base_params):
        sol = optimize_revenue(2.0, 0.5, base_params)
        assert sol.b_small == pytest.approx(_B_SMALL_REV, abs=1e-9)

    def test_interior_matches_grid_oracle(self, base_params):
        sol = optimize_revenue(2.0, 0.5, base_params)
        x, _ = grid_argmax(
            _objective(2.0, 0.5, base_params, Objective.REVENUE),
            GridSpec(0.0, 2.0 - 1e-4, 20001),
        )
        assert abs(sol.b_small - x) < 1e-3

    def test_first_order_residual(self, base_params):
        from spectrum_market.oligopoly import _foc

        sol = optimize_revenue(2.0, 0.5, base_params)
        c_u = base_params.lambda_u * 0.5 * base_params.r0
        w = 1.0 - base_params.alpha
        lhs = _foc(sol.b_small, 2.0, 0.0, w, c_u, base_params)
        scale = abs(_foc(1e-6, 2.0, 0.0, w, c_u, base_params))
        assert abs(lhs) <= 1e-10 * scale

    def test_full_band_and_separate(self, base_params):
        sol = optimize_revenue(2.0, 0.5, base_params)
        assert sol.b_macro + sol.b_small == pytest.approx(2.0, rel=1e-12)
        assert sol.outcome.regime is Regime.SEPARATE_SERVICE


class TestOptimizeWelfare:
    def test_boundary_above_threshold(self, base_params):
        c_u = 1.01 * threshold_sw(2.0, base_params)
        b_u = c_u / (base_params.lambda_u * base_params.r0)
        sol = optimize_welfare(2.0, b_u, base_params)
        assert sol.boundary and sol.b_small == 0.0

    def test_no_unlicensed_equals_revenue_solution(self, base_params):
        rev = optimize_revenue(2.0, 0.0, base_params)
        sw = optimize_welfare(2.0, 0.0, base_params)
        assert sw.b_small == pytest.approx(rev.b_small, rel=1e-9)

    def test_interior_frozen_value(self, base_params):
        sol = optimize_welfare(2.0, 0.5, base_params)
        assert sol.b_small == pytest.approx(_B_SMALL_SW, abs=1e-9)

    def test_interior_matches_grid_oracle(self, base_params):
        sol = optimize_welfare(2.0, 0.5, base_params)
        x, _ = grid_argmax(
            _objective(2.0, 0.5, base_params, Objective.SOCIAL_WELFARE),
            GridSpec(0.0, 2.0 - 1e-4, 20001),
        )
        assert abs(sol.b_small - x) < 1e-3

    def test_first_order_residual(self, base_params):
        from spectrum_market.oligopoly import _foc

        sol = optimize_welfare(2.0, 0.5, base_params)
        c_u = base_params.lambda_u * 0.5 * base_params.r0
        scale = abs(_foc(1e-6, 2.0, 0.0, 1.0, c_u, base_params))
        assert abs(_foc(sol.b_small, 2.0, 0.0, 1.0, c_u, base_params)) <= 1e-10 * scale


class TestComparisons:
    def test_revenue_dominance(self, base_params):
        # unlicensed competition always hurts the monopolist's revenue
        base_rev = optimize_revenue(2.0, 0.0, base_params).outcome.total_revenue
        for b_u in (0.1, 0.5, 2.0, 10.0):
            rev = optimize_revenue(2.0, b_u, base_params).outcome.total_revenue
            assert rev < base_rev

    def test_welfare_small_cell_shrinkage(self, base_params):
        base_bs = optimize_welfare(2.0, 0.0, base_params).b_small
        for b_u in (0.1, 0.5, 2.0):
            assert optimize_welfare(2.0, b_u, base_params).b_small < base_bs

    def test_crossover_sign_pattern(self, base_params):
        th = threshold_crossover(2.0, base_params)
        tilde = beta_tilde(base_params) * 2.0
        for frac in (0.2, 0.6, 0.95):
            c_u = frac * th
            b_u = c_u / (base_params.lambda_u * base_params.r0)
            assert optimize_revenue(2.0, b_u, base_params).b_small > tilde
        for frac in (1.05, 1.5, 3.0):
            c_u = frac * th
            b_u = c_u / (base_params.lambda_u * base_params.r0)
            assert optimize_revenue(2.0, b_u, base_params).b_small < tilde

    def test_directional_trend_small_alpha(self):
        # near-linear utility pushes the whole band into small-cells
        params = MarketParams(alpha=0.02, n_fixed=50, n_mobile=50, r0=50,
                              lambda_s=4, lambda_u=3)
        assert optimize_revenue(2.0, 0.0, params).b_small > 0.99 * 2.0


class TestCrossover:
    def test_golden_ratio_at_half(self):
        beta = crossover_beta(0.5)
        assert beta == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
        resid = 0.5 * (1 + beta) ** 1.5 - beta - 0.5
        assert abs(resid) < 1e-12

    def test_zero_root_excluded(self):
        for alpha in (0.2, 0.5, 0.8):
            assert crossover_beta(alpha) > 1e-6

    def test_threshold_composition(self, base_params):
        th = threshold_crossover(2.0, base_params)
        assert th == pytest.approx(80.0 * crossover_beta(0.5), rel=1e-12)
        assert th == pytest.approx(129.44271909999176, rel=1e-9)

    def test_random_oracle_scan(self):
        rng = random.Random(11)
        for _ in range(40):
            params = random_params(rng)
            B = rng.uniform(0.5, 4.0)
            sol = optimize_revenue(B, rng.uniform(0.0, 1.0), params)
            assert sol.b_macro > 0
            assert sol.b_macro + sol.b_small == pytest.approx(B, rel=1e-12)
            assert sol.outcome.regime is Regime.SEPARATE_SERVICE


@pytest.mark.parametrize("solve", [optimize_revenue, optimize_welfare])
@pytest.mark.parametrize("B, b_u", [
    (2.0, math.inf), (2.0, math.nan), (math.inf, 0.5), (math.nan, 0.5),
])
def test_rejects_non_finite_bandwidth(base_params, solve, B, b_u):
    with pytest.raises(DomainError, match="finite"):
        solve(B, b_u, base_params)


@pytest.mark.parametrize("threshold", [threshold_rev, threshold_sw, threshold_crossover])
def test_thresholds_reject_non_finite_bandwidth(base_params, threshold):
    for B in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            threshold(B, base_params)


def _standalone_split(B, b_u, params, objective):
    """The monopoly solver on its own first-order condition: its residual, the
    bracket 1e-12 B inside (0, B), and the search on log(b_macro) where the
    residual is still positive at the top.  Returns (b_macro, b_small, branch)."""
    a, kap = params.alpha, params.kappa
    c_u = params.lambda_u * b_u * params.r0
    if objective is Objective.REVENUE:
        cutoff, w = threshold_rev(B, params), 1.0 - a
    else:
        cutoff, w = threshold_sw(B, params), 1.0
    if c_u >= cutoff:
        return B, 0.0, "boundary"

    def foc(b_s, b_m=None):
        r_m = (B - b_s if b_m is None else b_m) * params.r0 / params.n_mobile
        r_s = (kap * params.lambda_s * b_s * params.r0 + c_u) / (kap * params.n_fixed)
        lhs = params.lambda_s * (
            w * r_s ** (-a) + a * (c_u / (kap * params.n_fixed)) * r_s ** (-a - 1.0)
        )
        return lhs - w * r_m ** (-a)

    eps = 1e-12 * B
    if foc(eps) <= 0:
        raise SolverConsistencyError("first-order condition not bracketed")
    if foc(B - eps) < 0:
        b_s = brentq(foc, eps, B - eps, xtol=1e-15, rtol=8.9e-16)
        return B - b_s, b_s, "interior"

    def g(t):
        b_m = math.exp(t)
        return foc(B - b_m, b_m)

    t_lo, t_hi = math.log(1e-280 * B), math.log(eps)
    if g(t_lo) >= 0:
        raise SolverConsistencyError("no root above the representable macro range")
    b_m = math.exp(brentq(g, t_lo, t_hi, xtol=1e-13, rtol=8.9e-16))
    return b_m, B - b_m, "log-macro"


@pytest.mark.parametrize("solve, objective", [
    (optimize_revenue, Objective.REVENUE),
    (optimize_welfare, Objective.SOCIAL_WELFARE),
])
def test_shared_root_matches_the_standalone_solver_exactly(solve, objective):
    branches = set()
    for B, b_u, params in single_provider_draws(1965, 400):
        try:
            b_m, b_s, branch = _standalone_split(B, b_u, params, objective)
        except SolverConsistencyError:
            with pytest.raises(SolverConsistencyError):
                solve(B, b_u, params)
            continue
        sol = solve(B, b_u, params)
        assert (sol.b_macro, sol.b_small, sol.boundary) == (b_m, b_s, branch == "boundary")
        branches.add(branch)
    assert branches == {"boundary", "interior", "log-macro"}
