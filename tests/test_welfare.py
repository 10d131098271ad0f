import random

import pytest

from spectrum_market import oligopoly
from spectrum_market.core import DomainError, MarketModelError, MarketParams
from spectrum_market.welfare import (
    ALL_SERIES,
    SERIES_DUOPOLY,
    SERIES_MONOPOLY_REVENUE,
    SERIES_MONOPOLY_WELFARE,
    SERIES_PERFECT_COMPETITION,
    SERIES_PLANNER,
    PlannerCase,
    alpha_efficiency_threshold,
    default_grid,
    find_kink,
    optimal_split,
    planner_optimal,
    welfare_sweep,
)

from conftest import single_provider_draws


def _params(alpha, lambda_u, lambda_s=4):
    return MarketParams(alpha=alpha, n_fixed=50, n_mobile=50, r0=50,
                        lambda_s=lambda_s, lambda_u=lambda_u)


CASE_B = _params(0.5, 4.0)     # equal multipliers
CASE_C = _params(0.8, 10.0)    # unlicensed clearly better
CASE_CP = _params(0.8, 4.5)    # unlicensed slightly better


class TestPlanner:
    def test_case_a_all_licensed(self, base_params):
        sol = planner_optimal(2.0, base_params)
        assert sol.case_label is PlannerCase.SMALL_DOMINATES
        assert sol.b_unlicensed == 0.0
        assert sol.b_small == pytest.approx(1.6, abs=1e-12)
        assert sol.b_macro == pytest.approx(0.4, abs=1e-12)

    def test_case_b_tie(self):
        sol = planner_optimal(2.0, CASE_B)
        assert sol.case_label is PlannerCase.TIE
        assert sol.b_small == pytest.approx(1.6, abs=1e-9)
        # the all-unlicensed representative is welfare-equivalent
        assert sol.alternative == pytest.approx((0.0, sol.b_small))

    def test_case_c_values(self):
        sol = planner_optimal(2.0, CASE_C)
        assert sol.case_label is PlannerCase.UNLICENSED_DOMINATES
        assert sol.b_small == 0.0
        assert sol.b_unlicensed == pytest.approx(1.28, abs=0.01)
        sol2 = planner_optimal(2.0, CASE_CP)
        assert sol2.b_unlicensed == pytest.approx(1.19, abs=0.01)

    def test_bandwidth_sums(self):
        for params in (CASE_B, CASE_C, CASE_CP):
            sol = planner_optimal(3.0, params)
            total = sol.b_macro + sol.b_small + sol.b_unlicensed
            assert total == pytest.approx(3.0, rel=1e-12)

    def test_rejects_nonpositive_band(self, base_params):
        with pytest.raises(DomainError):
            planner_optimal(0.0, base_params)

    @pytest.mark.parametrize("B", [float("inf"), float("nan")])
    def test_rejects_non_finite_band(self, base_params, B):
        with pytest.raises(DomainError, match="finite"):
            planner_optimal(B, base_params)


class TestAlphaThreshold:
    def test_case_c_root(self):
        a0 = alpha_efficiency_threshold(CASE_C)
        # residual of kappa^a * ratio + a - 1 at the root
        from spectrum_market.core import kappa

        assert abs(kappa(a0) ** a0 * 0.4 + a0 - 1.0) < 1e-10
        assert a0 > 0.8  # alpha=0.8 monopolist can still be efficient

    def test_case_cp_root_below(self):
        a0 = alpha_efficiency_threshold(CASE_CP)
        assert a0 < 0.8  # alpha=0.8 monopolist is inefficient

    def test_requires_unlicensed_advantage(self, base_params):
        with pytest.raises(DomainError):
            alpha_efficiency_threshold(base_params)


class TestOptimalSplit:
    def test_case_a_all_licensed_efficient(self, base_params):
        for n in (1, 2):
            b_l, b_u, efficient = optimal_split(2.0, n, base_params, grid_points=101)
            assert b_u == 0.0
            assert b_l == pytest.approx(2.0)
            assert efficient

    def test_case_b_monopoly_high_alpha_unique_optimum(self):
        params = _params(0.8, 4.0)
        b_l, b_u, efficient = optimal_split(2.0, 1, params, grid_points=101)
        assert b_u == 0.0
        assert efficient

    def test_case_cp_monopoly_inefficient(self):
        _, _, efficient = optimal_split(2.0, 1, CASE_CP, grid_points=101)
        assert not efficient

    def test_rejects_one_point_grid(self, base_params):
        with pytest.raises(DomainError, match="at least 2 points"):
            optimal_split(2.0, 1, base_params, grid_points=1)


class TestKinks:
    def test_case_b_monopoly_kinks(self):
        assert find_kink(SERIES_MONOPOLY_REVENUE, 2.0, CASE_B) == pytest.approx(
            1.6, abs=1e-6
        )
        assert find_kink(SERIES_MONOPOLY_WELFARE, 2.0, CASE_B) == pytest.approx(
            900.0 / 650.0, abs=1e-6
        )

    def test_planner_series_has_no_kink(self):
        assert find_kink(SERIES_PLANNER, 2.0, CASE_B) is None

    def test_kink_matches_boundary_transition(self):
        from spectrum_market.monopoly import optimize_revenue

        b_k = find_kink(SERIES_MONOPOLY_REVENUE, 2.0, CASE_B)
        below = optimize_revenue(2.0 - (b_k - 1e-4), b_k - 1e-4, CASE_B)
        above = optimize_revenue(2.0 - (b_k + 1e-4), b_k + 1e-4, CASE_B)
        assert below.b_small > 0
        assert above.b_small == 0.0


    def test_matches_the_first_closed_forms(self):
        # each series' threshold as first written, with its own
        # lambda_s^(1/alpha) term; the limit's threshold is in units of r0
        def first_kink(series, B, params):
            a, r0, lam_s = params.alpha, params.r0, params.lambda_s
            scale = params.kappa * params.n_fixed / params.n_mobile
            c = params.lambda_u * r0
            if series == SERIES_MONOPOLY_REVENUE:
                k = scale * r0 * (lam_s / (1.0 - a)) ** (1.0 / a)
            elif series == SERIES_MONOPOLY_WELFARE:
                k = scale * r0 * ((a + 1.0) * lam_s) ** (1.0 / a)
            elif series == SERIES_DUOPOLY:
                k = r0 * (1.0 - a * 0.5) ** (-1.0 / a) * scale * lam_s ** (1.0 / a)
            else:
                c = params.lambda_u
                k = scale * lam_s ** (1.0 / a)
            b_star = k * B / (c + k)
            return b_star if b_star < B * (1.0 - 1e-12) else None

        counts = {"kink": 0, "none": 0}
        for B, b_u, params in single_provider_draws(31, 400):
            for series in ALL_SERIES[1:]:
                try:
                    want = first_kink(series, B, params)
                except OverflowError:
                    continue
                got = find_kink(series, B, params)
                if want is None:
                    assert got is None
                    counts["none"] += 1
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    counts["kink"] += 1
        assert counts["kink"] >= 1000 and counts["none"] >= 10


def test_near_zero_alpha_answers_or_raises_a_model_error():
    # lambda^(1/alpha) leaves the float range here; every solver either
    # answers or raises one of the package's errors, never OverflowError
    rng = random.Random(37)
    for k in range(150):
        params = MarketParams(
            alpha=1e-6 if k == 0 else 10 ** rng.uniform(-6, -2),
            n_fixed=10 ** rng.uniform(-1, 4),
            n_mobile=10 ** rng.uniform(-1, 4),
            r0=10 ** rng.uniform(-2, 3),
            lambda_s=1.0 + 10 ** rng.uniform(-3, 2),
            lambda_u=10 ** rng.uniform(-3, 2),
        )
        bw = [10 ** rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
        b_u = rng.choice([0.0, sum(bw) * 10 ** rng.uniform(-4, 2)])
        for call in (
            lambda: oligopoly.solve_nash(bw, b_u, params),
            lambda: oligopoly.mne_condition(bw, b_u, params),
            lambda: oligopoly.asymptotic_limit(sum(bw), b_u, params),
            lambda: planner_optimal(sum(bw) + b_u, params),
            *(lambda s=s: find_kink(s, sum(bw) + b_u, params) for s in ALL_SERIES),
        ):
            try:
                call()
            except MarketModelError:
                pass


@pytest.fixture(scope="module")
def case_b_curve():
    grid = default_grid(2.0, 81)
    return welfare_sweep(2.0, grid, list(ALL_SERIES), CASE_B)


class TestSweep:
    def test_planner_series_constant(self, case_b_curve):
        vals = case_b_curve.series[SERIES_PLANNER]
        assert max(vals) - min(vals) <= 1e-9 * max(vals)

    def test_market_never_beats_planner(self, case_b_curve):
        planner = case_b_curve.series[SERIES_PLANNER]
        for label in ALL_SERIES:
            for w, wp in zip(case_b_curve.series[label], planner):
                assert w <= wp + 1e-9 * wp

    def test_series_coincide_in_common_mne_region(self, case_b_curve):
        kink_max = max(v for v in case_b_curve.kinks.values() if v is not None)
        labels = [s for s in ALL_SERIES if s != SERIES_PLANNER]
        for i, b_u in enumerate(case_b_curve.grid):
            if b_u <= kink_max:
                continue
            ref = case_b_curve.series[labels[0]][i]
            for label in labels[1:]:
                assert case_b_curve.series[label][i] == pytest.approx(
                    ref, rel=1e-9
                )

    def test_concave_beyond_kink(self, case_b_curve):
        for label in (SERIES_MONOPOLY_REVENUE, SERIES_DUOPOLY,
                      SERIES_PERFECT_COMPETITION):
            kink = case_b_curve.kinks[label]
            vals = [
                w for b_u, w in zip(case_b_curve.grid, case_b_curve.series[label])
                if b_u > kink
            ]
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                assert a - 2 * b + c <= 1e-8 * abs(b)

    def test_case_c_dip_then_rise(self):
        grid = default_grid(2.0, 81)
        curve = welfare_sweep(2.0, grid, [SERIES_MONOPOLY_REVENUE], CASE_C)
        vals = curve.series[SERIES_MONOPOLY_REVENUE]
        w0 = vals[0]
        dip = next(i for i, w in enumerate(vals) if w < w0 * (1 - 1e-9))
        assert max(vals[dip:]) > w0

    def test_market_equals_planner_at_zero_unlicensed_case_a(self, base_params):
        planner = planner_optimal(2.0, base_params).welfare
        grid = [0.0]
        for label in (SERIES_MONOPOLY_REVENUE, SERIES_DUOPOLY,
                      SERIES_PERFECT_COMPETITION):
            curve = welfare_sweep(2.0, grid, [label], base_params)
            assert curve.series[label][0] == pytest.approx(planner, rel=1e-9)

    def test_grid_validation(self, base_params):
        with pytest.raises(DomainError):
            welfare_sweep(2.0, [0.0, 2.0], [SERIES_PLANNER], base_params)
        with pytest.raises(DomainError):
            welfare_sweep(2.0, [0.0], ["nope"], base_params)

    def test_default_grid_shape(self):
        grid = default_grid(2.0, 11)
        assert len(grid) == 11
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0 - 1e-6)
