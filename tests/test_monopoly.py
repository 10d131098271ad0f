import math
import random
from decimal import Decimal, localcontext

import pytest

from spectrum_market.core import DomainError, MarketParams
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
from spectrum_market.oligopoly import _residual
from spectrum_market.oracle import GridSpec, grid_argmax

from conftest import random_params

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
        sol = optimize_revenue(2.0, 0.5, base_params)
        c_u = base_params.lambda_u * 0.5 * base_params.r0
        f = _residual(2.0, 0.0, 1.0 - base_params.alpha, c_u, base_params)
        # g is a log ratio of marginals, so its bound needs no scale
        assert abs(f(math.log(sol.b_macro / sol.b_small))[0]) <= 1e-13

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
        sol = optimize_welfare(2.0, 0.5, base_params)
        c_u = base_params.lambda_u * 0.5 * base_params.r0
        f = _residual(2.0, 0.0, 1.0, c_u, base_params)
        assert abs(f(math.log(sol.b_macro / sol.b_small))[0]) <= 1e-13


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


def _decimal_split(B, b_u, params, objective):
    """(b_macro, b_small) of the interior first-order root at 60 digits: the
    same residual as the solver's, in u = log(b_macro / b_small), bisected
    down to 1e-22 on [-2000, 40]."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, n_f, n_m = Decimal(params.alpha), Decimal(params.n_fixed), Decimal(params.n_mobile)
        r0, lam_s, band = Decimal(params.r0), Decimal(params.lambda_s), Decimal(B)
        kap = (a.ln() / (1 - a)).exp()
        r_u = Decimal(params.lambda_u) * Decimal(b_u) * r0 / (kap * n_f)
        w = 1 - a if objective is Objective.REVENUE else Decimal(1)

        def split(u):
            e = u.exp()
            return band * e / (1 + e), band / (1 + e)

        def residual(u):
            b_m, b_s = split(u)
            r_s = lam_s * b_s * r0 / n_f + r_u
            price_s = (-a * r_s.ln()).exp()
            price_m = (-a * (b_m * r0 / n_m).ln()).exp()
            return lam_s * (w * price_s + a * r_u * price_s / r_s) - w * price_m

        lo, hi = Decimal(-2000), Decimal(40)
        while hi - lo > Decimal("1e-22"):
            mid = (lo + hi) / 2
            if residual(mid) > 0:
                hi = mid
            else:
                lo = mid
        return tuple(float(x) for x in split((lo + hi) / 2))


def _reference_draws(seed, count):
    """(B, b_u, params) over wide magnitudes with an interior optimum for both
    objectives: bands 1e-9 to 1e2, every other draw with alpha < 0.1, and the
    unlicensed capacity a share of the lower threshold (0 on every fourth)."""
    rng = random.Random(seed)
    for k in range(count):
        params = MarketParams(
            alpha=rng.uniform(0.005, 0.1) if k % 2 == 0 else rng.uniform(0.1, 0.95),
            n_fixed=10 ** rng.uniform(-1, 4),
            n_mobile=10 ** rng.uniform(-1, 4),
            r0=10 ** rng.uniform(-2, 3),
            lambda_s=1.0 + 10 ** rng.uniform(-3, 2),
            lambda_u=10 ** rng.uniform(-3, 2),
        )
        B = 10 ** rng.uniform(-9, 2)
        share = 0.0 if k % 4 == 3 else rng.uniform(0.0, 0.9)
        c_u = share * min(threshold_rev(B, params), threshold_sw(B, params))
        yield B, c_u / (params.lambda_u * params.r0), params


@pytest.mark.parametrize("solve, objective", [
    (optimize_revenue, Objective.REVENUE),
    (optimize_welfare, Objective.SOCIAL_WELFARE),
])
def test_split_matches_a_60_digit_reference(solve, objective):
    # the draws hold four bands below 1e-6 and a macro share of 1.3e-13
    draws = list(_reference_draws(12, 8))
    assert sum(B < 1e-6 for B, _, _ in draws) == 4
    for B, b_u, params in draws:
        sol = solve(B, b_u, params)
        assert not sol.boundary
        b_m, b_s = _decimal_split(B, b_u, params, objective)
        assert abs(sol.b_macro - b_m) <= 1e-13 * b_m
        assert abs(sol.b_small - b_s) <= 1e-13 * b_s
