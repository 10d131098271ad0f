import itertools
import math
import random

import pytest

from spectrum_market.cli import _FIGURE_SCENARIOS
from spectrum_market.core import (
    DomainError,
    MarketModelError,
    MarketParams,
    MobileUnservableError,
    SolverConsistencyError,
    brentq,
)
from spectrum_market.association import AllocationProfile, Regime, solve_association
from spectrum_market.monopoly import optimize_revenue, optimize_welfare, threshold_rev
from spectrum_market import oligopoly
from spectrum_market.oligopoly import (
    EquilibriumClass,
    _active_pairs,
    _active_root,
    _check_candidate,
    _nash_candidate,
    _residual,
    asymptotic_limit,
    best_response,
    mne_capacity_bound,
    mne_condition,
    solve_nash,
    symmetric_equilibrium,
)

from conftest import random_params, single_provider_draws, wide_params


def _b_u_for_capacity(c_u, params):
    return c_u / (params.lambda_u * params.r0)


def _corollary_bound(n, B, params):
    """Closed-form MNE capacity for n providers that each hold bandwidth B."""
    a = params.alpha
    return (
        params.r0 * n * B
        * (params.lambda_s / (1.0 - a / n)) ** (1.0 / a)
        * params.kappa * params.n_fixed / params.n_mobile
    )


_FIGURE_PARAMS = [MarketParams(**s["params"]) for s in _FIGURE_SCENARIOS.values()]


class TestMneCondition:
    def test_single_sp_reduces_to_monopoly_threshold(self):
        rng = random.Random(3)
        for _ in range(20):
            params = random_params(rng)
            B = rng.uniform(0.2, 4.0)
            assert mne_capacity_bound([B], params) == threshold_rev(B, params)

    def test_symmetric_reduces_to_corollary(self):
        rng = random.Random(4)
        for _ in range(20):
            params = random_params(rng)
            n = rng.randint(1, 5)
            B = rng.uniform(0.2, 4.0)
            assert mne_capacity_bound([B] * n, params) == pytest.approx(
                _corollary_bound(n, B, params), rel=1e-12
            )

    def test_never_mne_without_unlicensed(self, base_params):
        assert not mne_condition([1.0, 2.0], 0.0, base_params)

    def test_rejects_nonpositive_bandwidth(self, base_params):
        with pytest.raises(DomainError):
            mne_condition([1.0, 0.0], 1.0, base_params)


@pytest.mark.parametrize("solve", [
    lambda b_u, p: solve_nash([1.0, 1.0], b_u, p),
    lambda b_u, p: symmetric_equilibrium(2, 1.0, b_u, p),
    lambda b_u, p: optimize_revenue(2.0, b_u, p),
    lambda b_u, p: optimize_welfare(2.0, b_u, p),
], ids=["solve_nash", "symmetric_equilibrium", "optimize_revenue", "optimize_welfare"])
def test_rejects_negative_unlicensed_bandwidth(solve, base_params):
    # a negative capacity would otherwise reach a complex power
    with pytest.raises(DomainError, match="unlicensed"):
        solve(-0.5, base_params)


@pytest.mark.parametrize("solve", [
    lambda p: solve_nash([1.0, 1.0], math.inf, p),
    lambda p: solve_nash([1.0, 1.0], math.nan, p),
    lambda p: solve_nash([1.0, math.inf], 0.5, p),
    lambda p: solve_nash([math.nan, 1.0], 0.5, p),
    lambda p: mne_condition([1.0, 1.0], math.inf, p),
    lambda p: mne_condition([1.0, math.inf], 0.5, p),
    lambda p: symmetric_equilibrium(2, math.inf, 1.0, p),
    lambda p: symmetric_equilibrium(2, 1.0, math.inf, p),
    lambda p: symmetric_equilibrium(2, math.nan, 1.0, p),
    lambda p: asymptotic_limit(math.inf, 0.5, p),
    lambda p: asymptotic_limit(2.0, math.inf, p),
    lambda p: asymptotic_limit(2.0, math.nan, p),
])
def test_rejects_non_finite_bandwidth(solve, base_params):
    with pytest.raises(DomainError, match="finite"):
        solve(base_params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("n, where", [(2, 1), (500, 250), (500, 499)])
def test_rejects_a_bad_bandwidth_at_any_position(bad, n, where, base_params):
    # min and max pass over a NaN after the first entry; the check must not
    bw = [1.0 + 0.01 * i for i in range(n)]
    bw[where] = bad
    with pytest.raises(DomainError, match="strictly positive, finite bandwidth"):
        solve_nash(bw, 0.5, base_params)


@pytest.mark.parametrize("entry", ["2", None, "x", math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_mne_condition_validates_like_solve_nash(entry, where, base_params):
    # all three take what float() takes, and reject the rest with DomainError
    bw = [1.0, 1.5, 2.0]
    bw[where] = entry
    calls = (lambda bw: solve_nash(bw, 0.5, base_params),
             lambda bw: mne_condition(bw, 0.5, base_params),
             lambda bw: mne_capacity_bound(bw, base_params))
    if entry == "2":
        as_float = [1.0, 1.5, 2.0]
        as_float[where] = 2.0
        for call in calls:
            assert call(bw) == call(as_float)
        return
    for call in calls:
        with pytest.raises(DomainError):
            call(bw)


class TestSolveNash:
    def test_no_unlicensed_always_msne(self):
        rng = random.Random(9)
        for _ in range(15):
            params = random_params(rng)
            n = rng.randint(1, 4)
            bw = [rng.uniform(0.1, 4.0) for _ in range(n)]
            res = solve_nash(bw, 0.0, params)
            assert res.classification is EquilibriumClass.MSNE
            assert not res.macro_only_set

    def test_mne_outcome_structure(self, base_params):
        bw = [1.0, 0.5]
        bound = mne_capacity_bound(bw, base_params)
        b_u = _b_u_for_capacity(1.1 * bound, base_params)
        res = solve_nash(bw, b_u, base_params)
        assert res.classification is EquilibriumClass.MNE
        assert res.macro_only_set == frozenset({0, 1})
        out = res.outcome
        assert out.k_small == 0.0
        assert out.k_unlicensed == pytest.approx(base_params.n_fixed)
        assert out.r_macro == pytest.approx(
            sum(bw) * base_params.r0 / base_params.n_mobile
        )

    def test_single_sp_equals_monopoly(self, base_params):
        for b_u in (0.0, 0.3, 1.0):
            res = solve_nash([2.0], b_u, base_params)
            sol = optimize_revenue(2.0, b_u, base_params)
            assert res.profile.per_sp[0][1] == pytest.approx(sol.b_small, abs=1e-9)

    def test_fig2_parameters_give_all_three_classes(self, base_params):
        # 2 SPs, B_U=1: classification varies with (B_1, B_2)
        seen = set()
        for b1, b2 in [(0.05, 0.05), (0.05, 1.0), (1.0, 1.0)]:
            seen.add(solve_nash([b1, b2], 1.0, base_params).classification)
        assert seen == {
            EquilibriumClass.MNE,
            EquilibriumClass.MPNE,
            EquilibriumClass.MSNE,
        }

    def test_mpne_pins_smaller_provider(self, base_params):
        res = solve_nash([0.05, 1.0], 1.0, base_params)
        assert res.classification is EquilibriumClass.MPNE
        assert res.macro_only_set == frozenset({0})
        assert res.profile.per_sp[0][1] == 0.0
        assert res.profile.per_sp[1][1] > 0.0

    def test_structural_invariants_random(self):
        rng = random.Random(21)
        for _ in range(40):
            params = random_params(rng)
            n = rng.randint(1, 4)
            bw = [rng.uniform(0.1, 4.0) for _ in range(n)]
            b_u = rng.choice([0.0, rng.uniform(0.0, 2.0)])
            res = solve_nash(bw, b_u, params)
            out = res.outcome
            assert out.regime is Regime.SEPARATE_SERVICE
            for (b_m, b_s), b_i in zip(res.profile.per_sp, bw):
                assert b_m > 0  # small-only play is never an equilibrium
                assert b_m + b_s == pytest.approx(b_i, rel=1e-12)
            if out.k_small > 0:
                assert out.r_small > out.r_macro

    def test_symmetry_and_monotonicity(self):
        # equal totals get equal splits; bigger totals get bigger splits
        rng = random.Random(33)
        for _ in range(25):
            params = random_params(rng)
            b = rng.uniform(0.2, 3.0)
            bw = [b, b, rng.uniform(0.2, 3.0)]
            b_u = rng.uniform(0.0, 1.0)
            res = solve_nash(bw, b_u, params)
            splits = res.profile.per_sp
            assert abs(splits[0][1] - splits[1][1]) < 1e-9
            order = sorted(range(3), key=lambda i: bw[i])
            for lo_i, hi_i in zip(order, order[1:]):
                assert splits[hi_i][1] >= splits[lo_i][1] - 1e-9
                assert splits[hi_i][0] >= splits[lo_i][0] - 1e-9

    def test_competition_shrinks_small_cells(self):
        # any unlicensed capacity reduces total small-cell bandwidth (MSNE)
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            params = random_params(rng)
            n = rng.randint(2, 4)
            bw = [rng.uniform(0.5, 3.0) for _ in range(n)]
            b_u = rng.uniform(0.01, 0.5)
            res = solve_nash(bw, b_u, params)
            if res.classification is not EquilibriumClass.MSNE:
                continue
            base = solve_nash(bw, 0.0, params)
            assert res.profile.total_b_small < base.profile.total_b_small
            checked += 1
        assert checked >= 10


class TestMneBoundary:
    """Just below the closed-form bound the interior root sinks under the
    pinning tolerance, so the macro-only candidate has to answer."""

    @staticmethod
    def _assert_mne(res, params):
        assert res.classification is EquilibriumClass.MNE
        assert all(b_s == 0.0 for _, b_s in res.profile.per_sp)
        # residuals are marginal revenues per unit R0; scale by the macro price
        assert max(res.kkt_residuals) <= 1e-9 * res.outcome.r_macro ** -params.alpha

    @pytest.mark.parametrize("bw", [[1.0, 1.0], [1.0, 2.0], [1.0, 2.0, 3.0]])
    def test_solve_nash(self, base_params, bw):
        c_u = (1 - 1e-12) * mne_capacity_bound(bw, base_params)
        res = solve_nash(bw, _b_u_for_capacity(c_u, base_params), base_params)
        self._assert_mne(res, base_params)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_symmetric_equilibrium(self, base_params, n):
        c_u = (1 - 1e-12) * mne_capacity_bound([1.0] * n, base_params)
        res = symmetric_equilibrium(n, 1.0, _b_u_for_capacity(c_u, base_params), base_params)
        self._assert_mne(res, base_params)


def _split(bw, active, c_u, params):
    """(b_macro, b_small) pairs with the ``active`` providers in small-cells,
    summing their bandwidth in index order; None where the first-order system
    has no solution."""
    active = sorted(active)
    n_active = len(active)
    sum_b_active = sum(bw[i] for i in active)
    pinned_b = sum(b for i, b in enumerate(bw) if i not in active)
    root = _active_root(sum_b_active, pinned_b, n_active - params.alpha, c_u, params)
    if root is None:
        return None
    t_s, m = root
    r_s = (params.kappa * params.lambda_s * t_s * params.r0 + c_u) / (
        params.kappa * params.n_fixed
    )
    r_m = (m + pinned_b) * params.r0 / params.n_mobile
    x = (params.lambda_s ** 2 * params.n_mobile / params.n_fixed
         * (r_m / r_s) ** (params.alpha + 1.0))
    mean_b = sum_b_active / n_active
    pairs = [(b, 0.0) for b in bw]
    for i in active:
        d = bw[i] - mean_b
        pairs[i] = (m / n_active + x / (1.0 + x) * d, t_s / n_active + d / (1.0 + x))
    return pairs


def test_monotone_order_agrees_with_every_pinned_subset():
    """Pinning the smallest providers first finds every equilibrium there is:
    no pinned subset passes the KKT check with a different split, and none
    passes at all where solve_nash raises."""
    rng = random.Random(1965)
    answered = 0
    for _ in range(300):
        params = MarketParams(
            alpha=rng.uniform(0.1, 0.9),
            n_fixed=10 ** rng.uniform(-1, 3),
            n_mobile=10 ** rng.uniform(-1, 3),
            r0=10 ** rng.uniform(-1, 3),
            lambda_s=1.0 + 10 ** rng.uniform(-2, 1.5),
            lambda_u=10 ** rng.uniform(-2, 1.5),
        )
        n = rng.randint(2, 5)
        bw = [10 ** rng.uniform(-3, 2) for _ in range(n)]
        share = rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(0.99, 1.01)])
        b_u = _b_u_for_capacity(share * mne_capacity_bound(bw, params), params)
        c_u = params.lambda_u * b_u * params.r0
        passing = []
        for k in range(n + 1):
            for pinned in itertools.combinations(range(n), k):
                active = [i for i in range(n) if i not in pinned]
                pairs = _split(bw, active, c_u, params) if active else [(b, 0.0) for b in bw]
                if pairs is not None and _check_candidate(
                    pairs, set(pinned), c_u, params
                ) is not None:
                    passing.append([b_s for _, b_s in pairs])
        try:
            res = solve_nash(bw, b_u, params)
        except SolverConsistencyError:
            assert passing == []
            continue
        answered += 1
        found = [b_s for _, b_s in res.profile.per_sp]
        for b_small in passing:
            assert all(abs(s - f) <= 1e-9 * b for s, f, b in zip(b_small, found, bw))
    assert answered >= 250


@pytest.mark.parametrize("raw, b_u", [
    # one provider pinned to macro-only service
    ({"alpha": 0.5, "n_fixed": 50, "n_mobile": 50, "r0": 50, "lambda_s": 4, "lambda_u": 3}, 2.0),
    # every provider in small-cells, with macro shares of 0.7% to 5%
    ({"alpha": 0.3, "n_fixed": 500, "n_mobile": 5, "r0": 2, "lambda_s": 1.5, "lambda_u": 0.5}, 5.0),
])
def test_scaling_the_bands_and_one_over_r0_scales_the_split(raw, b_u):
    # bandwidth enters the model only as b * r0: k times every band with r0 / k
    # is the same market, so the split is k times as large, to a few ulps
    params, bw = MarketParams(**raw), [0.2, 1.0, 2.0]
    nash = solve_nash(bw, b_u, params).profile.per_sp
    mono = optimize_revenue(sum(bw), b_u, params)
    for k in (10.0 ** e for e in range(-30, 31, 3)):
        scaled = MarketParams(**{**raw, "r0": raw["r0"] / k})
        got = solve_nash([k * b for b in bw], k * b_u, scaled).profile.per_sp
        for (b_m, b_s), (g_m, g_s) in zip(nash, got):
            assert g_m / k == pytest.approx(b_m, rel=2e-15, abs=0.0)
            assert g_s / k == pytest.approx(b_s, rel=2e-15, abs=0.0)
        sol = optimize_revenue(k * sum(bw), k * b_u, scaled)
        assert sol.b_macro / k == pytest.approx(mono.b_macro, rel=2e-15, abs=0.0)
        assert sol.b_small / k == pytest.approx(mono.b_small, rel=2e-15, abs=0.0)


def test_single_provider_game_is_the_revenue_monopoly():
    interior = 0
    for B, b_u, params in single_provider_draws(2016, 400):
        try:
            mono = optimize_revenue(B, b_u, params)
        except SolverConsistencyError:
            continue
        if mono.boundary:
            continue
        res = solve_nash([B], b_u, params)
        assert tuple(res.profile.per_sp[0]) == (mono.b_macro, mono.b_small)
        interior += 1
    assert interior >= 250


def _kkt_rel(res, b_u, params):
    """Largest KKT residual relative to the marginal revenues' magnitudes,
    rebuilt from the equilibrium rates."""
    a, r0, lam_s = params.alpha, params.r0, params.lambda_s
    r_m, r_s = res.outcome.r_macro, res.outcome.r_small
    worst = 0.0
    for b_m, b_s in res.profile.per_sp:
        macro = (r_m ** -a, a * (b_m * r0 / params.n_mobile) * r_m ** (-a - 1.0))
        small = (lam_s * r_s ** -a,
                 lam_s * a * (lam_s * b_s * r0 / params.n_fixed) * r_s ** (-a - 1.0))
        gain = (small[0] - small[1]) - (macro[0] - macro[1])
        worst = max(worst, abs(gain) / (sum(macro) + sum(small)))
    return worst


@pytest.mark.parametrize("raw, bw, b_u", [
    ({"alpha": 0.0325606, "n_fixed": 0.104322, "n_mobile": 2.59412, "r0": 58.0052,
      "lambda_s": 3.94702, "lambda_u": 0.223542}, [10.3458], 159.5),
    ({"alpha": 0.0321455, "n_fixed": 1433.88, "n_mobile": 0.391131, "r0": 1.34646,
      "lambda_s": 2.48151, "lambda_u": 0.693548}, [0.0456564, 15.3675], 19.1354),
])
def test_near_linear_root_below_the_bracket(raw, bw, b_u):
    # the macro-cells keep under 1e-12 of the band, where b - b_small has no correct digit
    params = MarketParams(**raw)
    res = solve_nash(bw, b_u, params)
    assert res.classification is EquilibriumClass.MSNE
    assert all(0.0 < b_m < 1e-12 * b for (b_m, _), b in zip(res.profile.per_sp, bw))
    assert _kkt_rel(res, b_u, params) <= 1e-4


def test_log_macro_search_reaches_below_1e_280_of_the_band():
    # the macro-cells keep about 1e-291 of the band
    raw = {"alpha": 0.003691243376194304, "n_fixed": 293.2762474445213,
           "n_mobile": 5.5462454608587795, "r0": 0.5489379523777765,
           "lambda_s": 12.110746004796479, "lambda_u": 21.374725998146385}
    bw, b_u = [0.7567766523241762, 0.09104500688523427], 11.214030050927509
    params = MarketParams(**raw)
    res = solve_nash(bw, b_u, params)
    assert res.classification is EquilibriumClass.MSNE
    assert all(0.0 < b_m < 1e-280 * sum(bw) for b_m, _ in res.profile.per_sp)
    assert _kkt_rel(res, b_u, params) <= 1e-4


def test_split_next_to_the_float_floor_sums_to_each_band():
    # each provider keeps 5e-308 to 7e-308 in macro-cells, at the smallest normal
    # float, where the ratio (t_s + c) / (m + P) would overflow
    raw = {"alpha": 0.00275825617852085, "n_fixed": 8518.772857085707,
           "n_mobile": 10.069803808480833, "r0": 141.05880255659451,
           "lambda_s": 6.990665054272826, "lambda_u": 0.018178662812408198}
    bw, b_u = [9.591411913019293, 4.190997223971551], 13.338772405962454
    res = solve_nash(bw, b_u, MarketParams(**raw))
    assert res.classification is EquilibriumClass.MSNE
    for (b_m, b_s), b in zip(res.profile.per_sp, bw):
        assert 0.0 < b_m < 1e-307 and b_m + b_s == b


def test_residual_slope_matches_a_central_difference():
    rng = random.Random(25)
    kinds, checked = set(), 0
    for _ in range(400):
        params = random_params(rng)
        S = 10 ** rng.uniform(-3, 3)
        pinned_b = rng.choice([0.0, S * 10 ** rng.uniform(-3, 1)])
        c_u = rng.choice([0.0, params.lambda_u * params.r0 * S * 10 ** rng.uniform(-3, 1)])
        f = _residual(S, pinned_b, rng.choice([1.0, rng.randint(1, 5) - params.alpha]),
                      c_u, params)
        u, h = rng.uniform(-25.0, 25.0), 1e-5
        slope = f(u)[1]
        if slope < 1e-3:
            continue  # a central difference of a flat g is mostly rounding
        assert (f(u + h)[0] - f(u - h)[0]) / (2.0 * h) == pytest.approx(slope, rel=1e-6)
        kinds.add((pinned_b > 0.0, c_u > 0.0))
        checked += 1
    assert checked >= 200 and len(kinds) == 4


def test_no_root_counts_where_the_macro_floor_lies_above_the_top(base_params):
    # at a band of 1e-250 every split leaves m under the floor or t_s under
    # 1e-12 of the band, although the split b_small = 0.8 B solves g = 0
    assert _active_root(1e-250, 0.0, 1.0 - base_params.alpha, 0.0, base_params) is None


def test_log_macro_floor_keeps_the_marginals_finite():
    # the root lies under the floor, where r_m ** (-a - 1) would leave the
    # float range; it fails as a model error
    raw = {"alpha": 0.006192839788952081, "n_fixed": 30.793222737780656,
           "n_mobile": 620.4271190432848, "r0": 33.14387772938144,
           "lambda_s": 81.5188897495671, "lambda_u": 1.0267341801749712}
    bw, b_u = [0.09298409096193322, 0.9031711605486521], 0.018287192122867935
    with pytest.raises(MarketModelError):
        solve_nash(bw, b_u, MarketParams(**raw))


def _large_profiles(n):
    """Seeded N-provider profiles: no unlicensed band, a share of the MNE
    bound, and just under the bound, where most providers are pinned."""
    rng = random.Random(500 + n)
    for share in (0.0, 0.3, 0.7, 0.9, 0.97, 0.995):
        params = random_params(rng)
        bw = [10 ** rng.uniform(-1, 1) for _ in range(n)]
        yield params, bw, _b_u_for_capacity(share * mne_capacity_bound(bw, params), params)


@pytest.mark.parametrize("raw, bw", [
    ({"alpha": 0.6164341840155374, "n_fixed": 1.304747014837281,
      "n_mobile": 0.029180292380562762, "r0": 57928.19259253589,
      "lambda_s": 5.59500664727732, "lambda_u": 0.020936165252282042},
     [2.0391736281672876e-08, 14762786.00502673]),
    ({"alpha": 0.0024566654482517294, "n_fixed": 0.41791436327731524,
      "n_mobile": 0.015573668423503812, "r0": 1.1245970467217141,
      "lambda_s": 1.0099679394922012, "lambda_u": 107.26248054035945},
     [1.0659362722309786e-05, 99167538.19445185, 24938374.462978005]),
])
def test_each_pair_sums_to_its_bandwidth(raw, bw):
    # a provider 1e-15 to 1e-13 of the band: its two pairwise relations each
    # carry the band's rounding, so they must not both set its split
    for params, profile_bw, b_u in [(MarketParams(**raw), bw, 0.0), *_large_profiles(50)]:
        res = solve_nash(profile_bw, b_u, params)
        for (b_m, b_s), b in zip(res.profile.per_sp, profile_bw):
            assert b_m > 0.0 and b_s >= 0.0
            assert abs(b_m + b_s - b) <= math.ulp(b)


@pytest.mark.parametrize("n", [2, 50, 500])
def test_solved_profile_equals_a_validated_one(n):
    # solve_nash builds its profile without re-validating it: the result must
    # be the profile and the outcome that the public constructor gives
    classes = set()
    for params, bw, b_u in _large_profiles(n):
        for b_u in (b_u, int(b_u)):  # an int band comes back as a float
            res = solve_nash(bw, b_u, params)
            classes.add(res.classification)
            profile = AllocationProfile(res.profile.per_sp, b_u)
            assert res.profile == profile
            assert all(type(x) is float for pair in res.profile.per_sp for x in pair)
            assert type(res.profile.per_sp) is tuple and type(res.profile.b_unlicensed) is float
            assert res.outcome == solve_association(profile, params)
    assert len(classes) >= 2


def test_check_counts_the_providers_at_zero_small_cells(base_params):
    # the check tells pinned providers by b_small = 0.0: one that is not named
    # pinned fails as an active provider without small-cells
    res = solve_nash([0.2, 1.0], 0.8, base_params)
    assert res.classification is EquilibriumClass.MPNE and res.macro_only_set == {0}
    c_u = base_params.lambda_u * 0.8 * base_params.r0
    pairs = list(res.profile.per_sp)
    assert _check_candidate(pairs, {0}, c_u, base_params) == list(res.kkt_residuals)
    assert _check_candidate(pairs, set(), c_u, base_params) is None


def test_single_pair_solvers_clear_their_validated_profile(base_params):
    for B, b_u in [(2.0, 0.5), (2, 100), (1e-3, 0)]:
        for sol in (optimize_revenue(B, b_u, base_params), optimize_welfare(B, b_u, base_params)):
            profile = AllocationProfile([(sol.b_macro, sol.b_small)], b_u)
            assert sol.outcome == solve_association(profile, base_params)
        lim = asymptotic_limit(B, b_u, base_params)
        profile = AllocationProfile([(lim.b_macro, lim.b_small)], b_u)
        assert lim.outcome == solve_association(profile, base_params)


def test_failures_lie_below_a_macro_small_ratio_of_1e_300():
    """Near-linear utility (alpha < 0.1) over the benchmark's parameter ranges:
    every SolverConsistencyError has a b_u = 0 macro/small bandwidth ratio
    (N_m / N_f) lambda_s^(1 - 1/alpha) below 1e-300, and every draw above it
    solves."""
    rng = random.Random(2016)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    failed = []
    for _ in range(3000):
        params = wide_params(rng, rng.uniform(1e-6, 0.1))
        bw = [log_uniform(0.01, 1e2) for _ in range(rng.choice([2, 5, 50]))]
        b_u = 0.0 if rng.random() < 0.1 else sum(bw) * log_uniform(1e-4, 1e2)
        log10_ratio = (math.log10(params.n_mobile / params.n_fixed)
                       + (1.0 - 1.0 / params.alpha) * math.log10(params.lambda_s))
        try:
            solve_nash(bw, b_u, params)
        except SolverConsistencyError:
            failed.append(log10_ratio)
    assert len(failed) >= 10 and max(failed) < -300.0


def _scan_every_candidate(bw, b_u, params):
    """solve_nash's candidate scan without its shortcuts: every pinned count
    of the smallest-first order, each active set summed in index order and
    its split put through the full KKT check.  Returns (pinned, b_small)."""
    n = len(bw)
    c_u = params.lambda_u * b_u * params.r0
    order = sorted(range(n), key=lambda i: (bw[i], i))
    pinned_counts = range(n) if c_u < mne_capacity_bound(bw, params) else ()
    for k in pinned_counts:
        pairs = _split(bw, order[k:], c_u, params)
        pinned = set(order[:k])
        if pairs is not None and _check_candidate(pairs, pinned, c_u, params) is not None:
            return pinned, [b_s for _, b_s in pairs]
    if _check_candidate([(b, 0.0) for b in bw], set(range(n)), c_u, params) is None:
        raise SolverConsistencyError("no candidate passes")
    return set(range(n)), [0.0] * n


@pytest.mark.parametrize("n", [50, 120, 300])
def test_linear_scan_matches_every_candidate_scan(n):
    classes = set()
    for params, bw, b_u in _large_profiles(n):
        try:
            pinned, want = _scan_every_candidate(bw, b_u, params)
        except SolverConsistencyError:
            with pytest.raises(SolverConsistencyError):
                solve_nash(bw, b_u, params)
            continue
        res = solve_nash(bw, b_u, params)
        classes.add(res.classification)
        assert res.macro_only_set == frozenset(pinned)
        got = [b_s for _, b_s in res.profile.per_sp]
        assert all(abs(g - w) <= 1e-12 * b for g, w, b in zip(got, want, bw))
    assert EquilibriumClass.MPNE in classes


def test_nash_scan_checks_exactly_one_candidate(monkeypatch):
    checks = []
    real = oligopoly._check_candidate

    def counted(*args):
        checks.append(1)
        return real(*args)

    monkeypatch.setattr(oligopoly, "_check_candidate", counted)
    pinned_most = 0
    for params, bw, b_u in _large_profiles(300):
        checks.clear()
        res = solve_nash(bw, b_u, params)
        assert len(checks) == 1
        pinned_most += len(res.macro_only_set) > len(bw) // 2
    assert pinned_most >= 1


def _walk_candidate(bw, total_b, c_u, params):
    """``_nash_candidate`` one pinned count at a time: a root for every count
    up to the first whose smallest active provider screens as interior."""
    n, a, kap, lam_s = len(bw), params.alpha, params.kappa, params.lambda_s
    order = sorted(range(n), key=bw.__getitem__)
    pinned_b = 0.0
    for k, i_min in enumerate(order):
        sum_b_active = total_b - pinned_b
        root = _active_root(sum_b_active, pinned_b, n - k - a, c_u, params)
        if root is not None:
            t_s, m = root
            r_s = (kap * lam_s * t_s * params.r0 + c_u) / (kap * params.n_fixed)
            r_m = (m + pinned_b) * params.r0 / params.n_mobile
            x = lam_s ** 2 * (params.n_mobile / params.n_fixed) * (r_m / r_s) ** (a + 1.0)
            split = (sum_b_active / (n - k), t_s / (n - k), m / (n - k),
                     1.0 / (1.0 + x), x / (1.0 + x))
            ((m_min, s_min),) = _active_pairs((bw[i_min],), *split)
            if s_min > oligopoly._PIN_TOL * bw[i_min] and m_min > 0.0:
                pairs = _active_pairs(bw, *split)
                for i in order[:k]:
                    pairs[i] = (bw[i], 0.0)
                return frozenset(order[:k]), pairs
        pinned_b += bw[i_min]
    return frozenset(order), [(b, 0.0) for b in bw]


def _wide_profiles(n, count, seed):
    """Seeded profiles over wide magnitudes, a tenth at alpha < 0.1, with
    unlicensed capacity from none to just under the MNE bound."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for k in range(count):
        params = wide_params(
            rng, rng.uniform(1e-6, 0.1) if k % 10 == 0 else rng.uniform(0.1, 1.0 - 1e-6))
        bw = [log_uniform(0.01, 1e2) for _ in range(n)]
        share = rng.choice([0.0, rng.random(), rng.uniform(0.9, 1.0)])
        yield params, bw, _b_u_for_capacity(share * mne_capacity_bound(bw, params), params)


@pytest.mark.parametrize("n", [50, 500])
def test_jump_lands_where_the_walk_stops(n):
    # the jump skips only pinned counts that the walk would reject: the same
    # pinned set and the same pairs, bit for bit
    draws = [*_large_profiles(n), *_wide_profiles(n, 60 if n == 50 else 12, 35 + n)]
    jumped = 0
    for params, bw, b_u in draws:
        c_u = params.lambda_u * b_u * params.r0
        outcomes = []
        for candidate in (_nash_candidate, _walk_candidate):
            try:
                pinned, pairs = candidate(bw, sum(bw), c_u, params)
                outcomes.append((sorted(pinned), repr(pairs)))
            except ArithmeticError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        jumped += len(outcomes[0][0]) >= 2
    assert jumped >= len(draws) // 2  # most draws pin two or more providers


def test_jump_steps_by_one_where_the_pair_slope_overflows():
    # with nothing pinned X overflows to inf, so c = 1 / (1 + X) is 0 and the
    # threshold is undefined: the count moves on by one, as in the walk
    params = MarketParams(alpha=0.6291330970364477, n_fixed=4.229766954757141e66,
                          n_mobile=5.651372054470625e144, r0=8.507314137081828e-93,
                          lambda_s=4.8686721395842357e120, lambda_u=2.2310240326278186e-70)
    bw = [3.074102792538452e-76, 2.0838299331381735e69, 7.120284401706862e51]
    c_u = 3.820500618055692e90
    pinned, pairs = _nash_candidate(bw, sum(bw), c_u, params)
    walk_pinned, walk_pairs = _walk_candidate(bw, sum(bw), c_u, params)
    assert pinned == walk_pinned == {0, 2} and repr(pairs) == repr(walk_pairs)


def test_jump_takes_few_roots_near_the_bound(monkeypatch):
    # the walk takes one root more than the pinned count (up to 472 here);
    # a count without a root still advances by one, so only solves whose
    # roots all exist are bounded
    roots = []

    def counted(*args):
        roots.append(real(*args))
        return roots[-1]

    real = oligopoly._active_root
    monkeypatch.setattr(oligopoly, "_active_root", counted)
    bounded = 0
    for params, bw, b_u in _large_profiles(500):
        roots.clear()
        res = solve_nash(bw, b_u, params)
        if None not in roots:
            assert len(roots) <= 8
            bounded += len(res.macro_only_set) >= 400
    assert bounded >= 2


class TestBestResponse:
    def test_fixed_point_at_msne(self, base_params):
        res = solve_nash([2.0, 1.5], 0.4, base_params)
        assert res.classification is EquilibriumClass.MSNE
        for i, (_, b_s) in enumerate(res.profile.per_sp):
            assert abs(best_response(i, res.profile, base_params) - b_s) < 1e-4

    def test_zero_at_mne(self, base_params):
        bw = [1.0, 0.5]
        b_u = _b_u_for_capacity(1.2 * mne_capacity_bound(bw, base_params), base_params)
        res = solve_nash(bw, b_u, base_params)
        assert res.classification is EquilibriumClass.MNE
        for i in range(2):
            assert best_response(i, res.profile, base_params) < 1e-4

    def test_no_profitable_deviation_grid(self):
        rng = random.Random(55)
        for _ in range(12):
            params = random_params(rng)
            n = rng.randint(1, 3)
            bw = [rng.uniform(0.2, 3.0) for _ in range(n)]
            b_u = rng.choice([0.0, rng.uniform(0.0, 1.5)])
            res = solve_nash(bw, b_u, params)
            from spectrum_market.association import solve_association

            eq_rev = res.outcome.revenue_per_sp
            for i in range(n):
                b_i = bw[i]
                for k in range(200):
                    dev = b_i * (k + 0.5) / 200  # keep macro bandwidth positive
                    per_sp = [
                        (b_i - dev, dev) if j == i else pair
                        for j, pair in enumerate(res.profile.per_sp)
                    ]
                    out = solve_association(
                        AllocationProfile(per_sp, b_u), params
                    )
                    assert out.revenue_per_sp[i] <= eq_rev[i] * (1 + 1e-8)

    def test_uniqueness_probe(self, base_params):
        # best-response iteration from random starts finds the same point
        rng = random.Random(60)
        bw = [2.0, 1.2]
        b_u = 0.5
        target = solve_nash(bw, b_u, base_params)
        target_splits = [b_s for _, b_s in target.profile.per_sp]
        for _ in range(10):
            splits = [rng.uniform(0.0, b * 0.99) for b in bw]
            for _ in range(200):
                profile = AllocationProfile(
                    [(b - s, s) for b, s in zip(bw, splits)], b_u
                )
                new = [
                    best_response(i, profile, base_params) for i in range(len(bw))
                ]
                if max(abs(a - b) for a, b in zip(new, splits)) < 1e-7:
                    splits = new
                    break
                splits = new
            assert max(
                abs(a - b) for a, b in zip(splits, target_splits)
            ) < 1e-5


    def test_rejects_one_point_grid(self, base_params):
        profile = AllocationProfile([(1.0, 1.0)], 0.5)
        with pytest.raises(DomainError, match="at least 2 points"):
            best_response(0, profile, base_params, grid_points=1)


def _symmetric_reference(n, B, b_u, params):
    """The symmetric game solved on its own: the per-provider first-order
    root on [1e-14 B, B - 1e-14 B], kept if it passes the KKT check, else
    the macro-only profile.  Returns (class, per-provider small-cell split)."""
    a, kap = params.alpha, params.kappa
    n_f, n_m, r0, lam_s = params.n_fixed, params.n_mobile, params.r0, params.lambda_s
    c_u = params.lambda_u * b_u * r0

    def residual(b_s):
        r_s = (c_u + kap * lam_s * n * b_s * r0) / (kap * n_f)
        r_m = n * (B - b_s) * r0 / n_m
        m_small = lam_s * (r_s ** -a - a * (lam_s * b_s * r0 / n_f) * r_s ** (-a - 1.0))
        m_macro = r_m ** -a - a * ((B - b_s) * r0 / n_m) * r_m ** (-a - 1.0)
        return m_small - m_macro

    eps = 1e-14 * B
    if c_u < _corollary_bound(n, B, params):
        f_lo = math.inf if c_u == 0.0 else residual(eps)
        if f_lo > 0 > residual(B - eps):
            b_s = brentq(residual, eps, B - eps, xtol=1e-16, rtol=8.9e-16)
            if _check_candidate([(B - b_s, b_s)] * n, set(), c_u, params) is not None:
                return EquilibriumClass.MSNE, b_s
    return EquilibriumClass.MNE, 0.0


def _symmetric_draws():
    rng = random.Random(70)
    for _ in range(15):
        params = random_params(rng)
        n = rng.randint(1, 5)
        B = rng.uniform(0.2, 3.0)
        yield n, B, rng.choice([0.0, rng.uniform(0.0, 1.5)]), params
    # the sweep and optimal-split games of the figures: B_total = 2 shared by n
    for params in _FIGURE_PARAMS[1:]:
        for n in (1, 2, 8):
            for k in range(41):
                b_u = 2.0 * k / 41
                yield n, (2.0 - b_u) / n, b_u, params


class TestSymmetric:
    def test_agrees_with_general_solver(self):
        """solve_nash on equal shares matches the symmetric game solved on
        its own, per provider."""
        classes = set()
        for n, B, b_u, params in _symmetric_draws():
            cls, b_s = _symmetric_reference(n, B, b_u, params)
            res = symmetric_equilibrium(n, B, b_u, params)
            assert res.classification is cls
            classes.add(cls)
            assert all(abs(s - b_s) <= 1e-13 * B for _, s in res.profile.per_sp)
        assert classes == {EquilibriumClass.MSNE, EquilibriumClass.MNE}

    @pytest.mark.parametrize("params", _FIGURE_PARAMS)
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_one_root_per_solve(self, monkeypatch, params, n):
        builds, evals = [], []
        real = oligopoly._residual

        def counted(*args):
            builds.append(1)
            f = real(*args)

            def g(u):
                evals.append(u)
                return f(u)

            return g

        monkeypatch.setattr(oligopoly, "_residual", counted)
        for share in (0.0, 0.5):
            b_u = _b_u_for_capacity(share * mne_capacity_bound([1.0] * n, params), params)
            builds.clear()
            evals.clear()
            res = symmetric_equilibrium(n, 1.0, b_u, params)
            assert res.classification is EquilibriumClass.MSNE
            assert len(builds) == 1
            # at c_u = 0 the closed-form start of the search is the root
            assert len(evals) <= (1 if share == 0.0 else 6)

    @pytest.mark.parametrize("alpha", [0.13, 0.14])
    def test_near_linear_utility_without_unlicensed_band(self, alpha):
        # the macro-cells keep between 1e-14 and 1e-12 of the band at equilibrium
        params = MarketParams(alpha=alpha, n_fixed=50, n_mobile=50, r0=50,
                              lambda_s=90, lambda_u=3)
        for bw in ([1.0], [1.0, 1.0], [1.0, 2.0]):
            assert solve_nash(bw, 0.0, params).classification is EquilibriumClass.MSNE
        for n in (1, 2):
            res = symmetric_equilibrium(n, 1.0, 0.0, params)
            assert res.classification is EquilibriumClass.MSNE

    def test_threshold_continuity(self, base_params):
        bound = mne_capacity_bound([1.0] * 2, base_params)
        below = symmetric_equilibrium(
            2, 1.0, _b_u_for_capacity(bound * (1 - 1e-6), base_params), base_params
        )
        above = symmetric_equilibrium(
            2, 1.0, _b_u_for_capacity(bound * (1 + 1e-6), base_params), base_params
        )
        assert above.profile.per_sp[0][1] == 0.0
        assert below.profile.per_sp[0][1] < 1e-4

    def test_monopoly_closed_form(self, base_params):
        eq = symmetric_equilibrium(1, 1.0, 0.0, base_params)
        assert eq.profile.per_sp[0][1] == pytest.approx(0.8, rel=1e-9)


class TestAsymptotic:
    def test_no_unlicensed_closed_form(self, base_params):
        lim = asymptotic_limit(2.0, 0.0, base_params)
        assert lim.b_small == pytest.approx(1.6, rel=1e-12)

    def test_threshold_zeroes_small_cells(self, base_params):
        bound_b_u = (
            2.0 * base_params.kappa * base_params.n_fixed
            * base_params.lambda_s ** (1.0 / base_params.alpha)
            / (base_params.n_mobile * base_params.lambda_u)
        )
        # numerator vanishes exactly at the threshold
        lim = asymptotic_limit(2.0 * (1 + 1e-12), bound_b_u, base_params)
        assert lim.b_small == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_game_converges(self, base_params):
        B_total, b_u = 2.0, 0.5
        lim = asymptotic_limit(B_total, b_u, base_params)
        gaps = []
        for n in (2, 8, 32, 128):
            eq = symmetric_equilibrium(n, B_total / n, b_u, base_params)
            gaps.append(abs(n * eq.profile.per_sp[0][1] - lim.b_small))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_matches_the_first_closed_form(self):
        # the limit as first written, with its own lambda_s^(1/alpha) terms
        def first_b_small(B, b_u, params):
            a, kap = params.alpha, params.kappa
            n_f, n_m, lam_s, lam_u = (
                params.n_fixed, params.n_mobile, params.lambda_s, params.lambda_u,
            )
            if b_u * lam_u >= B * kap * n_f * lam_s ** (1.0 / a) / n_m:
                return 0.0
            g = lam_s * n_m / (lam_s ** (1.0 / a) * n_f)
            return (B - b_u * lam_u * n_m / (kap * n_f * lam_s ** (1.0 / a))) / (1.0 + g)

        compared = zeros = 0
        for B, b_u, params in single_provider_draws(29, 600):
            try:
                want = first_b_small(B, b_u, params)
            except OverflowError:
                continue
            try:
                got = asymptotic_limit(B, b_u, params).b_small
            except MobileUnservableError:
                # no macro bandwidth is left at float precision
                assert want >= B * (1.0 - 1e-15)
                continue
            assert abs(got - want) <= 1e-15 * B
            assert (got == 0.0) == (want == 0.0)
            compared += 1
            zeros += want == 0.0
        assert compared >= 500 and zeros >= 20
