import math
import random

import pytest

from spectrum_market import core
from spectrum_market.core import (
    DegenerateScenarioError,
    DomainError,
    MarketParams,
    MobileUnservableError,
    marginal_utility,
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


def _reference_clearing(profile, params):
    """The clearing as first written, field by field: totals through zip and
    sum, capacities from the totals, prices through ``marginal_utility`` and
    welfare through ``utility``."""
    b_macro, b_small = zip(*profile.per_sp)
    total_b_macro, total_b_small = sum(b_macro), sum(b_small)
    r0 = params.r0
    c_m = total_b_macro * r0
    c_s = params.lambda_s * total_b_small * r0
    c_u = params.lambda_u * profile.b_unlicensed * r0
    if not c_m + c_s + c_u < math.inf:
        raise DomainError("overflow")
    if c_m == 0.0 and c_s == 0.0 and c_u == 0.0:
        raise DegenerateScenarioError("no capacity")
    if c_m == 0.0:
        raise MobileUnservableError("no macro capacity")
    alpha, kap = params.alpha, params.kappa
    n_f, n_m = params.n_fixed, params.n_mobile
    n_t = n_f + n_m
    numer = kap * n_f * total_b_macro * r0 - n_m * c_u
    threshold = 0.0 if numer <= 0 else numer / (kap * n_m * params.lambda_s * r0)
    if total_b_small < threshold:
        denom = c_u + kap * (c_m + c_s)
        k_u = n_t * c_u / denom
        k_m = n_t * kap * c_m / denom
        k_s = n_t * kap * c_s / denom
        r_lic = denom / (kap * n_t)
        r_m = r_lic
        r_s = r_lic if k_s > 0 else 0.0
        r_u = kap * r_lic if k_u > 0 else 0.0
        p_m = marginal_utility(r_lic, alpha)
        p_s = p_m if k_s > 0 else None
        regime = Regime.MIXED_SERVICE
    else:
        k_m = n_m
        r_m = c_m / n_m
        p_m = marginal_utility(r_m, alpha)
        denom = kap * c_s + c_u
        if denom > 0:
            k_s = n_f * kap * c_s / denom
            k_u = n_f * c_u / denom
        else:
            k_s = k_u = 0.0
        r_s = c_s / k_s if k_s > 0 else 0.0
        r_u = c_u / k_u if k_u > 0 else 0.0
        p_s = marginal_utility(r_s, alpha) if k_s > 0 else None
        regime = Regime.SEPARATE_SERVICE
    p_s_val = p_s if p_s is not None else 0.0
    revenues = tuple(bm * r0 * p_m + params.lambda_s * bs * r0 * p_s_val
                     for bm, bs in profile.per_sp)
    sw = k_m * utility(r_m, alpha) + k_s * utility(r_s, alpha) + k_u * utility(r_u, alpha)
    return (regime, k_m, k_s, k_u, r_m, r_s, r_u, p_m, p_s, revenues, sw)


def _clearing_draws(seed, count):
    """Seeded (profile, params): N = 1-7 providers over wide magnitudes, every
    third small-cell bandwidth zero and every fifth profile without any, b_u
    zero in a third of the draws, and small-cell bandwidths over seven
    decades, so that both regimes occur."""
    rng = random.Random(seed)
    for k in range(count):
        params = MarketParams(
            alpha=rng.uniform(1e-3, 0.999),
            n_fixed=10 ** rng.uniform(-2, 4),
            n_mobile=10 ** rng.uniform(-2, 4),
            r0=10 ** rng.uniform(-2, 3),
            lambda_s=1.0 + 10 ** rng.uniform(-3, 2),
            lambda_u=10 ** rng.uniform(-3, 2),
        )
        n = 1 + k % 7
        b_u = 0.0 if k % 3 == 0 else 10 ** rng.uniform(-4, 1)
        per_sp = [(10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-6, 1)) for _ in range(n)]
        per_sp = [(bm, 0.0 if k % 5 == 0 or j % 3 == 2 else bs)
                  for j, (bm, bs) in enumerate(per_sp)]
        yield AllocationProfile(per_sp, b_u), params
        if k % 50 == 0:  # signed zeros, which sum() adds to +0.0
            yield AllocationProfile([(bm, -0.0) for bm, _ in per_sp], -0.0), params


def test_clearing_is_bit_identical_to_the_reference():
    regimes, seen = set(), set()
    for profile, params in _clearing_draws(20260118, 4000):
        want = _reference_clearing(profile, params)
        got = solve_association(profile, params)
        assert got == want and repr(tuple(got)) == repr(want)
        assert got.total_revenue == sum(want[9])
        regimes.add(got.regime)
        seen.add((len(profile.per_sp), profile.b_unlicensed == 0.0,
                  profile.total_b_small == 0.0))
    assert regimes == {Regime.MIXED_SERVICE, Regime.SEPARATE_SERVICE}
    assert {n for n, _, _ in seen} == set(range(1, 8))
    assert (1, True, True) in seen and (7, True, True) in seen


@pytest.mark.parametrize("per_sp, b_u, error, match", [
    ([(0.0, 1.0)], 1.0, MobileUnservableError, "unservable"),
    ([(0.0, 0.0)], 0.0, DegenerateScenarioError, "capacities are zero"),
    ([(1e307, 1.0)], 0.0, DomainError, "overflow"),
    # the macro rate c_m / N_m underflows to 0.0: marginal_utility's domain
    ([(5e-324, 1.0)], 0.0, DomainError, "rate must be positive, got 0.0"),
])
def test_clearing_raises_what_the_reference_raises(per_sp, b_u, error, match):
    params = MarketParams(alpha=0.5, n_fixed=50, n_mobile=1000, r0=50, lambda_s=4, lambda_u=3)
    profile = AllocationProfile(per_sp, b_u)
    with pytest.raises(error):
        _reference_clearing(profile, params)
    with pytest.raises(error, match=match):
        solve_association(profile, params)


def test_outcome_is_an_immutable_named_tuple(base_params):
    out = solve_association(AllocationProfile([(1.0, 1.0), (2.0, 0.5)], 1.0), base_params)
    total = out.total_revenue
    with pytest.raises(AttributeError):
        out.k_macro = 0.0
    with pytest.raises(AttributeError):
        out.revenue_per_sp = (0.0, 0.0)
    assert out.total_revenue == total == sum(out.revenue_per_sp)
    regime, k_macro, *_ = out
    assert (regime, k_macro) == (out.regime, out.k_macro)
    assert out == tuple(out) and out._fields[-2:] == ("revenue_per_sp", "social_welfare")
