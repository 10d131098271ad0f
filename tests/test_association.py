import math
import random

import pytest

from spectrum_market import core
from spectrum_market.core import (
    DomainError,
    MobileUnservableError,
    net_payoff,
    utility,
)
from spectrum_market.association import (
    AllocationProfile,
    Regime,
    regime_threshold,
    small_cell_shadow_rate,
    solve_association,
)

from conftest import random_params


class TestRegimeThreshold:
    def test_clamps_to_zero_when_unlicensed_large(self, base_params):
        profile = AllocationProfile([(1.0, 1.0)], b_unlicensed=1.0)  # C_U = 150
        # kappa*N_f*B_M*R_0 = 625 < N_m*C_U = 7500
        assert regime_threshold(profile, base_params) == 0.0

    def test_no_unlicensed_value(self, base_params):
        profile = AllocationProfile([(1.0, 0.0)], b_unlicensed=0.0)
        assert regime_threshold(profile, base_params) == pytest.approx(0.25)

    def test_flips_regime_exactly_once(self, base_params):
        profile0 = AllocationProfile([(1.0, 0.0)], 0.0)
        b_s0 = regime_threshold(profile0, base_params)
        regimes = []
        for frac in [0.2, 0.6, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0]:
            prof = AllocationProfile([(1.0, frac * b_s0)], 0.0)
            regimes.append(solve_association(prof, base_params).regime)
        flips = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
        assert flips == 1
        assert regimes[0] is Regime.MIXED_SERVICE
        assert regimes[-1] is Regime.SEPARATE_SERVICE
        # tie resolves to separate service
        tie = solve_association(AllocationProfile([(1.0, b_s0)], 0.0), base_params)
        assert tie.regime is Regime.SEPARATE_SERVICE


class TestSolveAssociation:
    def test_hand_worked_separate_instance(self, base_params):
        # N=1, B_M=B_S=B_U=1: C_M=50, C_S=200, C_U=150
        out = solve_association(AllocationProfile([(1.0, 1.0)], 1.0), base_params)
        assert out.regime is Regime.SEPARATE_SERVICE
        assert out.k_macro == pytest.approx(50.0)
        assert out.k_small == pytest.approx(12.5)
        assert out.k_unlicensed == pytest.approx(37.5)
        assert out.r_macro == pytest.approx(1.0)
        assert out.r_small == pytest.approx(16.0)
        assert out.r_unlicensed == pytest.approx(4.0)
        assert out.p_macro == pytest.approx(1.0)
        assert out.p_small == pytest.approx(0.25)
        # Lemma ratio R_U = kappa * R_S
        assert out.r_unlicensed == pytest.approx(base_params.kappa * out.r_small)
        assert out.social_welfare == pytest.approx(350.0)

    def test_no_unlicensed_all_fixed_in_small(self, base_params):
        out = solve_association(AllocationProfile([(1.0, 1.0)], 0.0), base_params)
        assert out.regime is Regime.SEPARATE_SERVICE
        assert out.k_small == pytest.approx(50.0)
        assert out.k_unlicensed == 0.0
        assert out.r_unlicensed == 0.0

    def test_mixed_instance_prices_equal_and_masses_conserve(self, base_params):
        profile0 = AllocationProfile([(1.0, 0.0)], 0.0)
        b_s0 = regime_threshold(profile0, base_params)
        out = solve_association(
            AllocationProfile([(1.0, 0.9 * b_s0)], 0.0), base_params
        )
        assert out.regime is Regime.MIXED_SERVICE
        assert out.p_macro == pytest.approx(out.p_small)
        total = out.k_macro + out.k_small + out.k_unlicensed
        assert total == pytest.approx(base_params.n_fixed + base_params.n_mobile)

    def test_zero_small_bandwidth_separate(self, base_params):
        out = solve_association(AllocationProfile([(1.0, 0.0)], 1.0), base_params)
        assert out.regime is Regime.SEPARATE_SERVICE
        assert out.k_small == 0.0
        assert out.r_small == 0.0
        assert out.p_small is None
        assert out.r_unlicensed == pytest.approx(150.0 / 50.0)
        # shadow rate for entry deviations sits above the realized rate
        shadow = small_cell_shadow_rate(150.0, base_params)
        assert shadow == pytest.approx(150.0 / (0.25 * 50))

    def test_mobile_unservable(self, base_params):
        with pytest.raises(MobileUnservableError):
            solve_association(AllocationProfile([(0.0, 1.0)], 1.0), base_params)

    def test_price_ordering_separate(self, base_params):
        out = solve_association(AllocationProfile([(1.0, 1.0)], 1.0), base_params)
        assert out.p_macro > out.p_small


@pytest.mark.parametrize("per_sp, b_u", [
    ([(math.nan, 1.0)], 0.5),
    ([(1.0, math.inf)], 0.5),
    ([(1.0, 1.0), (-math.inf, 1.0)], 0.5),
    ([(1.0, 1.0)], math.nan),
    ([(1.0, 1.0)], math.inf),
])
def test_profile_rejects_non_finite_bandwidth(per_sp, b_u):
    with pytest.raises(DomainError, match="finite"):
        AllocationProfile(per_sp, b_u)


@pytest.mark.parametrize("per_sp, b_u", [
    ([(1e307, 1e307)], 1e307),
    ([(1e307, 1.0)], 0.0),
    ([(1.0, 1e306)], 0.0),
    ([(1.0, 1.0)], 1e307),
    ([(1e307, 0.0), (1e307, 0.0)], 0.0),
])
def test_solve_association_rejects_overflowing_capacity(per_sp, b_u, base_params):
    # finite bandwidths whose rate capacity lambda * b * r0 is not finite
    with pytest.raises(DomainError, match="overflow"):
        solve_association(AllocationProfile(per_sp, b_u), base_params)


def test_solve_association_large_finite_capacity(base_params):
    out = solve_association(AllocationProfile([(1e300, 1e300)], 1e300), base_params)
    assert all(math.isfinite(x) for x in (out.social_welfare, *out.revenue_per_sp))


def test_solve_association_uses_the_cached_kappa(base_params, monkeypatch):
    calls = []
    real = core.kappa
    monkeypatch.setattr(core, "kappa", lambda alpha: calls.append(alpha) or real(alpha))
    for per_sp, b_u in [([(1.0, 1.0)], 1.0), ([(1.0, 0.01)], 0.0), ([(1.0, 0.5), (2.0, 0.0)], 0.3)]:
        solve_association(AllocationProfile(per_sp, b_u), base_params)
    assert calls == []


class TestRandomizedInvariants:
    def test_thousand_random_profiles(self):
        rng = random.Random(20240817)
        n_t_checked = 0
        for _ in range(1000):
            params = random_params(rng)
            n_sps = rng.randint(1, 4)
            per_sp = [
                (rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)) for _ in range(n_sps)
            ]
            b_u = rng.choice([0.0, rng.uniform(0.0, 3.0)])
            profile = AllocationProfile(per_sp, b_u)
            out = solve_association(profile, params)
            n_total = params.n_fixed + params.n_mobile

            # market clearing
            mass = out.k_macro + out.k_small + out.k_unlicensed
            assert mass == pytest.approx(n_total, rel=1e-9)

            # capacity clearing
            c_m, c_s, c_u = profile.capacities(params)
            if out.k_macro > 0:
                assert out.k_macro * out.r_macro == pytest.approx(c_m, rel=1e-9)
            if out.k_small > 0:
                assert out.k_small * out.r_small == pytest.approx(c_s, rel=1e-9)
            if out.k_unlicensed > 0:
                assert out.k_unlicensed * out.r_unlicensed == pytest.approx(
                    c_u, rel=1e-9
                )

            # price ordering by regime
            if out.regime is Regime.MIXED_SERVICE:
                if out.p_small is not None:
                    assert out.p_macro == pytest.approx(out.p_small, rel=1e-12)
            elif out.k_small > 0:
                assert out.p_macro > out.p_small

            # equilibrium rate ratio between unlicensed and licensed
            if out.k_small > 0 and out.k_unlicensed > 0:
                assert out.r_unlicensed == pytest.approx(
                    params.kappa * out.r_small, rel=1e-9
                )
                # payoff equalization between small-cell and unlicensed users
                w_small = net_payoff(out.p_small, params.alpha)
                w_unl = utility(out.r_unlicensed, params.alpha)
                assert abs(w_small - w_unl) <= 1e-9 * w_unl
            if (
                out.regime is Regime.MIXED_SERVICE
                and out.k_unlicensed > 0
            ):
                assert out.r_unlicensed == pytest.approx(
                    params.kappa * out.r_macro, rel=1e-9
                )

            # welfare recomputed from the masses and rates
            sw = sum(
                mass * utility(rate, params.alpha)
                for mass, rate in (
                    (out.k_macro, out.r_macro),
                    (out.k_small, out.r_small),
                    (out.k_unlicensed, out.r_unlicensed),
                )
                if mass > 0
            )
            assert sw == pytest.approx(out.social_welfare, rel=1e-12)
            n_t_checked += 1
        assert n_t_checked == 1000
