import random

import pytest

from spectrum_market.core import marginal_utility, utility
from spectrum_market.association import AllocationProfile, solve_association
from spectrum_market.oracle import (
    GridSpec,
    finite_difference,
    grid_argmax,
    payoff_equalization_fixed_point,
)
from spectrum_market.core import DomainError

from conftest import random_params


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(1.0, 1.0, 10)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 1)

    def test_points_endpoints(self):
        pts = GridSpec(0.0, 1.0, 5).points()
        assert pts == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


class TestGridArgmax:
    def test_constant_breaks_tie_to_smallest(self):
        x, v = grid_argmax(lambda x: 1.0, GridSpec(0.0, 1.0, 11))
        assert x == 0.0
        assert v == 1.0

    def test_quadratic_on_grid(self):
        x, _ = grid_argmax(lambda x: -(x - 0.3) ** 2, GridSpec(0.0, 1.0, 11))
        assert x == pytest.approx(0.3)


class TestFiniteDifference:
    def test_linear_exact(self):
        assert finite_difference(lambda x: 3.0 * x + 1.0, 2.0, 0.1) == pytest.approx(3.0)

    def test_marginal_utility_matches(self):
        for alpha in (0.3, 0.5, 0.8):
            for r in (0.5, 2.0, 10.0):
                fd = finite_difference(lambda x: utility(x, alpha), r, 1e-6)
                assert fd == pytest.approx(marginal_utility(r, alpha), rel=1e-5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DomainError):
            finite_difference(lambda x: x, 1.0, 0.0)

    def test_small_cell_revenue_gradient(self, base_params):
        # revenue derivative wrt the macro/small split matches the analytical
        # marginal difference used by the equilibrium solver
        from spectrum_market.oligopoly import _marginal_factors

        b_i, b_s, b_u = 1.5, 0.6, 0.4

        def revenue(x):
            out = solve_association(
                AllocationProfile([(b_i - x, x)], b_u), base_params
            )
            return out.revenue_per_sp[0]

        fd = finite_difference(revenue, b_s, 1e-6)
        c_u = base_params.lambda_u * b_u * base_params.r0
        price_s, slope_s, price_m, slope_m = _marginal_factors(
            [(b_i - b_s, b_s)], c_u, base_params
        )
        analytic = base_params.r0 * (
            price_s * (1.0 - slope_s * b_s) - price_m * (1.0 - slope_m * (b_i - b_s))
        )
        assert fd == pytest.approx(analytic, rel=1e-5)


def _agree(a, b, tol=1e-8):
    assert a.regime is b.regime
    for field in ("k_macro", "k_small", "k_unlicensed",
                  "r_macro", "r_small", "r_unlicensed", "social_welfare"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == pytest.approx(y, rel=tol, abs=tol)


class TestPayoffEqualizationFixedPoint:
    def test_hand_example(self, base_params):
        profile = AllocationProfile([(1.0, 1.0)], 1.0)
        _agree(
            payoff_equalization_fixed_point(profile, base_params),
            solve_association(profile, base_params),
        )

    def test_no_unlicensed_fills_small_cells(self, base_params):
        profile = AllocationProfile([(1.0, 1.0)], 0.0)
        out = payoff_equalization_fixed_point(profile, base_params)
        assert out.k_small == pytest.approx(base_params.n_fixed)

    def test_mixed_instance(self, base_params):
        profile = AllocationProfile([(1.0, 0.1)], 0.0)  # below the 0.25 threshold
        fp = payoff_equalization_fixed_point(profile, base_params)
        cf = solve_association(profile, base_params)
        assert fp.regime.value == "mixed"
        _agree(fp, cf)

    def test_random_profiles(self):
        rng = random.Random(77)
        for _ in range(60):
            params = random_params(rng)
            n = rng.randint(1, 3)
            profile = AllocationProfile(
                [(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)) for _ in range(n)],
                rng.uniform(0.0, 3.0),
            )
            _agree(
                payoff_equalization_fixed_point(profile, params),
                solve_association(profile, params),
            )
