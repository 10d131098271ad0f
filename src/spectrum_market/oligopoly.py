"""Sub-game-perfect Nash equilibrium of the bandwidth game among N providers.

The price stage is closed-form (see ``association``); only the bandwidth
stage needs solving.  The unique equilibrium is found by pinning a candidate
set of providers to macro-only service, solving the aggregate first-order
equality for the small- and macro-cell totals of the rest, and recovering
the individual (b_macro, b_small) splits from the pairwise linear relations.
The equilibrium is monotone in total bandwidth, so the pinned set is always
the providers with the least bandwidth: the first set in that order whose
smallest active provider splits in the interior (else the macro-only
profile) is the one candidate the KKT check runs on.  The search for it does
not try every pinned count: a set whose smallest active provider fails jumps
to pinning every bandwidth at or below that set's threshold, where its
small-cell split crosses 0, and a set without a root moves on by one.  The
aggregate root also serves the single-provider optimizers in ``monopoly``,
and ``_exit_capacity`` is the one closed form of every threshold at which
small-cells are abandoned.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import sys
from dataclasses import dataclass

from .core import DomainError, MarketParams, SolverConsistencyError
from .core import brentq, grid_golden_max  # noqa: F401 (bench/tracing.py wraps brentq)
from .association import (
    AllocationProfile,
    AssociationOutcome,
    Regime,
    solve_association,
)

# Candidate small-cell bandwidths at or below this fraction of a provider's
# total count as the macro-only boundary rather than an interior solution.
_PIN_TOL = 1e-10

_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # the smallest normal float
_LOG_ODDS_TOP = math.log(1e12)  # top of the root search in u: t_s about 1e-12 of the band


class EquilibriumClass(enum.Enum):
    MSNE = "MSNE"  # every provider runs small-cells
    MPNE = "MPNE"  # some providers are macro-only
    MNE = "MNE"    # no provider runs small-cells


@dataclass(frozen=True)
class EquilibriumResult:
    classification: EquilibriumClass
    profile: AllocationProfile
    macro_only_set: frozenset
    outcome: AssociationOutcome
    kkt_residuals: tuple


def _checked_bandwidths(bandwidths):
    """(floats, sum, max) of the providers' bandwidths, each converted by
    ``float``; DomainError unless all are numbers, positive and finite."""
    try:
        bandwidths = list(map(float, bandwidths))
    except (TypeError, ValueError, OverflowError):
        raise DomainError("every provider's bandwidth must be a number") from None
    # builtin passes: min and max may pass over a NaN, but the sum is then NaN
    b_max, total_b = max(bandwidths, default=math.nan), sum(bandwidths)
    if not (b_max < math.inf and min(bandwidths) > 0.0 and total_b == total_b):
        raise DomainError("every provider needs strictly positive, finite bandwidth")
    return bandwidths, total_b, b_max


def mne_condition(bandwidths, b_unlicensed: float, params: MarketParams) -> bool:
    """True iff the macro-only profile is the Nash equilibrium."""
    bound = mne_capacity_bound(bandwidths, params)
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    return params.lambda_u * b_unlicensed * params.r0 >= bound


def _exit_capacity(B: float, base: float, params: MarketParams) -> float:
    """kappa * N_f * B * R0 / N_m * base^(1/alpha): the unlicensed capacity at
    which an optimizer with this ``base`` abandons small-cells."""
    if not 0.0 < B < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    try:
        factor = base ** (1.0 / params.alpha)
    except OverflowError:
        return math.inf  # a near 0: no unlicensed capacity can displace small-cells
    return params.kappa * params.n_fixed * B * params.r0 / params.n_mobile * factor


def mne_capacity_bound(bandwidths, params: MarketParams) -> float:
    """Unlicensed capacity at which all providers abandon small-cells."""
    _, total_b, b_max = _checked_bandwidths(bandwidths)
    return _capacity_bound(total_b, b_max, params)


def _capacity_bound(total, b_max, params):
    return _exit_capacity(total, params.lambda_s / (1.0 - params.alpha * (b_max / total)), params)


def _log_macro_floor(params):
    """log of the smallest macro total the root search reaches: a normal
    float at whose rate r_m, even with no pinned bandwidth, r_m ** (-a - 1)
    stays a factor e below the float range."""
    log_r_min = -(math.log(sys.float_info.max) - 1.0) / (1.0 + params.alpha)
    return max(_LOG_FLOAT_MIN, log_r_min + math.log(params.n_mobile / params.r0))


def _split_totals(u, sum_b_active):
    """(t_s, m) with m / t_s = e^u and t_s + m = ``sum_b_active``.  The smaller
    is formed from u, so it keeps its relative precision, and the larger is
    the rest."""
    if u < _LOG_FLOAT_MIN:  # e^u is subnormal: sum_b_active * e^u would lose digits
        m = math.exp(u + math.log(sum_b_active))
        return sum_b_active - m, m
    e = math.exp(-abs(u))
    smaller = sum_b_active * e / (1.0 + e)
    return (smaller, sum_b_active - smaller) if u >= 0.0 else (sum_b_active - smaller, smaller)


def _residual(sum_b_active, pinned_b, w, c_u, params):
    """(g, g') at u = log(m / t_s): g, the log of the active providers' summed
    small-cell over macro-cell marginal, increases in u.  They hold t_s of
    their ``sum_b_active`` S in small-cells and m in macro-cells, the pinned
    ``pinned_b`` P in macro-cells; ``w`` is n_active - alpha for revenue and 1
    for the welfare monopolist.  With c = c_u / (kappa lambda_s r0),
    g = log lambda_s - alpha log(lambda_s N_m / N_f) + log(term_s / term_m)
        - alpha (log((t_s + c) / S) - log((m + P) / S)),
    term_s = w + alpha c / (t_s + c), term_m = w + alpha P / (m + P): the band
    enters only as ratios to S, so g is the same at every band scale."""
    a, lam_s = params.alpha, params.lambda_s
    g0 = math.log(lam_s) - a * math.log(lam_s * params.n_mobile / params.n_fixed)
    c = c_u / (params.kappa * lam_s * params.r0 * sum_b_active)
    p = pinned_b / sum_b_active

    def f(u):
        e = math.exp(-abs(u))
        small, large = e / (1.0 + e), 1.0 / (1.0 + e)
        ts, ms = (small, large) if u >= 0.0 else (large, small)
        xs, xm = ts + c, ms + p
        f_s = c / xs
        # with P = 0, log(m / S) comes from u: m / S may underflow
        lm, f_p = (math.log(xm), p / xm) if p else (min(u, 0.0) - math.log1p(e), 0.0)
        term_s, term_m = w + a * f_s, w + a * f_p
        g = g0 + math.log(term_s / term_m) - a * (math.log(xs) - lm)
        # m / (m + P) is 1 - f_p
        return g, a * ts * (ms * (1.0 + f_s / term_s) / xs + (1.0 - f_p) * (1.0 + f_p / term_m))

    return f


def _active_root(sum_b_active, pinned_b, w, c_u, params):
    """Root of ``_residual`` over the splits of ``sum_b_active``.  Returns
    (t_s, m), the active providers' small- and macro-cell totals, or None if
    no split with t_s above 1e-12 of the band and m above the
    ``_log_macro_floor`` solves it.

    The search in u = log(m / t_s) has a tolerance relative in both totals.
    From the closed form log(N_m / N_f) + (1 - 1/alpha) log(lambda_s), the
    root when c_u = 0 and nothing is pinned, it takes Newton steps inside the
    sign bracket seen so far and bisects it when a step leaves it ("rtsafe":
    Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4).  A domain end
    is evaluated only when a step would cross it."""
    f = _residual(sum_b_active, pinned_b, w, c_u, params)
    lo, hi = _log_macro_floor(params) - math.log(sum_b_active), _LOG_ODDS_TOP
    u = math.log(params.n_mobile / params.n_fixed)
    # clamped to lo last: where the floor lies above the top, no root counts
    u = max(min(u + (1.0 - 1.0 / params.alpha) * math.log(params.lambda_s), hi), lo)
    below = above = None  # the largest u seen with g < 0, the smallest with g > 0
    while True:
        g, dg = f(u)
        if g == 0.0:
            return _split_totals(u, sum_b_active)
        if u == (hi if g < 0.0 else lo):
            return None  # the root lies above the top or under the macro floor
        below, above = (u, above) if g < 0.0 else (below, u)
        v = u - g / dg if dg > 0.0 else (hi if g < 0.0 else lo)
        if below is None or above is None:  # all seen on one side: stop at the domain end
            v = min(max(v, lo), hi)
        elif v != u and not below < v < above:  # v == u: the step is under u's ulp
            v = 0.5 * (below + above)
        if abs(v - u) <= 4e-16 + 8.9e-16 * abs(u):
            return _split_totals(v, sum_b_active)
        u = v


def _active_pairs(bandwidths, mean_b, small, macro, c, c_bar):
    """The (b_macro, b_small) pair of each active bandwidth; see ``_nash_candidate``."""
    return [(b_m, b - b_m) if (b_m := macro + c_bar * (d := b - mean_b)) < (b_s := small + c * d)
            else (b - b_s, b_s) for b in bandwidths]


def _nash_candidate(bandwidths, total_b, c_u, params):
    """(pinned set, (b_macro, b_small) pairs) of the first pinned set in the
    smallest-first order whose smallest active provider has an interior
    split, or the macro-only profile, every provider pinned, if none has.

    Active provider i gets t_s / n + c d_i in small-cells and m / n + (1 - c) d_i
    in macro-cells, d_i = b_i - mean_b, where c = 1 / (1 + X) is the slope of
    the pairwise first-order relations and X = lambda_s^2 (N_m / N_f)
    (r_m / r_s)^(alpha + 1).  The smaller of the two is kept and the larger is
    the rest of b_i, so each pair sums to b_i and a macro share far below the
    resolution of b_i (near-linear utility) keeps its precision.

    The pinned count k starts at 0.  A count without a root moves on by one.
    A count that fails the screen jumps to the number of bandwidths at or
    below theta = mean_b - (t_s / n) / c, where set k's small-cell line
    t_s / n + c d crosses 0: its split gives each of them no small-cells.  No
    proof shows that the jump never passes the first count that screens as
    interior; it rests on evidence.  It lands on that count on every call of
    ``test_jump_lands_where_the_walk_stops`` (a walk of one count at a time)
    and of the benchmark's seeded ``solve_nash`` pools, with the same floats.
    Wherever it lands, ``solve_nash`` returns the candidate only if it passes
    the KKT check, and the equilibrium is unique.
    """
    n = len(bandwidths)
    order = sorted(range(n), key=bandwidths.__getitem__)
    sorted_b = [bandwidths[i] for i in order]
    pinned_totals = [0.0, *itertools.accumulate(sorted_b)]  # the floats of a running sum
    a, kap, lam_s = params.alpha, params.kappa, params.lambda_s
    n_pinned = 0
    while n_pinned < n:
        n_active, pinned_b = n - n_pinned, pinned_totals[n_pinned]
        sum_b_active = total_b - pinned_b
        root = _active_root(sum_b_active, pinned_b, n_active - a, c_u, params)
        if root is None:
            n_pinned += 1
            continue
        t_s, m = root
        r_s = (kap * lam_s * t_s * params.r0 + c_u) / (kap * params.n_fixed)
        r_m = (m + pinned_b) * params.r0 / params.n_mobile
        x = lam_s ** 2 * (params.n_mobile / params.n_fixed) * (r_m / r_s) ** (a + 1.0)
        mean_b, small, _, c, _ = split = (
            sum_b_active / n_active, t_s / n_active, m / n_active, 1.0 / (1.0 + x), x / (1.0 + x))
        b_min = sorted_b[n_pinned]
        ((m_min, s_min),) = _active_pairs((b_min,), *split)
        # the first set whose smallest active provider screens as interior
        if s_min > _PIN_TOL * b_min and m_min > 0.0:
            pairs = _active_pairs(bandwidths, *split)  # the pinned are reset below
            for i in order[:n_pinned]:
                pairs[i] = (bandwidths[i], 0.0)
            return frozenset(order[:n_pinned]), pairs
        theta = mean_b - small / c if c > 0.0 else -math.inf  # c is 0 or NaN if X overflows
        n_pinned = max(n_pinned + 1, bisect.bisect_right(sorted_b, theta))
    return frozenset(order), [(b, 0.0) for b in bandwidths]


def _marginal_factors(pairs, c_u, params):
    """(price_s, slope_s, price_m, slope_m) of the (b_macro, b_small) pairs,
    or None where r_s is 0: a provider holding (b_m, b_s) has the marginal
    revenues per unit R0 price_s (1 - slope_s b_s) and price_m (1 - slope_m b_m)."""
    a, kap = params.alpha, params.kappa
    b_macro, b_small = zip(*pairs)
    # at t_s = 0 this is the shadow rate that prices small-cell entry
    r_s = (c_u + kap * params.lambda_s * sum(b_small) * params.r0) / (kap * params.n_fixed)
    if r_s == 0.0:
        return None
    total_m = sum(b_macro)
    return (params.lambda_s * r_s ** -a, a * params.lambda_s * params.r0 / (params.n_fixed * r_s),
            (total_m * params.r0 / params.n_mobile) ** -a, a / total_m)


def _check_candidate(pairs, pinned, c_u, params):
    """KKT verification of (b_macro, b_small) pairs; returns per-provider
    residuals (marginal revenues per unit R0) or None on failure.  The loop
    tells the ``pinned`` providers by their b_small of 0.0 and counts them:
    an active provider at 0.0 fails as one pinned provider too many."""
    factors = _marginal_factors(pairs, c_u, params)
    if factors is None:
        return None  # entering small-cells is infinitely profitable
    price_s, slope_s, price_m, slope_m = factors
    residuals, n_pinned = [], len(pinned)
    for b_m, b_s in pairs:
        # no abs: m_macro >= 0 where every b_m > 0 (slope_m b_m <= alpha); a b_m <= 0 fails
        m_macro = price_m * (1.0 - slope_m * b_m)
        if b_s:
            gap = abs(price_s * (1.0 - slope_s * b_s) - m_macro)
            if b_s <= _PIN_TOL * (b_m + b_s) or b_m <= 0.0 or gap > 1e-9 * m_macro:
                return None  # not an interior split with equal marginals
            residuals.append(gap)
        else:
            gain = price_s - m_macro
            if gain > 1e-9 * m_macro:
                return None  # pinned provider wants to enter small-cells
            residuals.append(0.0 if 0.0 > gain else gain)  # max(gain, 0.0)
            n_pinned -= 1
    return residuals if n_pinned == 0 else None


def solve_nash(bandwidths, b_unlicensed: float, params: MarketParams) -> EquilibriumResult:
    """Compute the unique bandwidth-stage Nash equilibrium."""
    bandwidths, total_b, b_max = _checked_bandwidths(bandwidths)
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    c_u = params.lambda_u * b_unlicensed * params.r0
    n = len(bandwidths)
    if c_u >= _capacity_bound(total_b, b_max, params):
        pinned, pairs = frozenset(range(n)), [(b, 0.0) for b in bandwidths]
    else:  # providers exit small-cells smallest-bandwidth first
        pinned, pairs = _nash_candidate(bandwidths, total_b, c_u, params)
    residuals = _check_candidate(pairs, pinned, c_u, params)
    if residuals is None:
        raise SolverConsistencyError(f"the equilibrium candidate for {n} providers"
                                     " fails its KKT check")
    profile = AllocationProfile._solved(tuple(pairs), float(b_unlicensed))
    outcome = solve_association(profile, params)
    if outcome.regime is not Regime.SEPARATE_SERVICE:
        raise SolverConsistencyError("the equilibrium split clears in the mixed regime")
    cls = (EquilibriumClass.MSNE if not pinned
           else EquilibriumClass.MNE if len(pinned) == n else EquilibriumClass.MPNE)
    return EquilibriumResult(cls, profile, pinned, outcome, tuple(residuals))


def best_response(
    sp_index: int,
    profile: AllocationProfile,
    params: MarketParams,
    grid_points: int = 64,
    tol: float = 1e-10,
) -> float:
    """Revenue-maximizing small-cell bandwidth for one provider, others fixed.

    The provider keeps its total bandwidth from ``profile`` but re-optimizes
    its macro/small split.  Independent verification oracle for the
    equilibrium definition: evaluates the provider's revenue through the
    association equilibrium on a coarse grid, then refines with
    golden-section search over the concave objective.
    """
    b_i = sum(profile.per_sp[sp_index])

    def revenue(b_s):
        per_sp = [
            (max(b_i - b_s, 0.0), b_s) if j == sp_index else pair
            for j, pair in enumerate(profile.per_sp)
        ]
        out = solve_association(
            AllocationProfile(per_sp, profile.b_unlicensed), params
        )
        return out.revenue_per_sp[sp_index]

    # keep a sliver of macro bandwidth so mobile users stay servable
    return grid_golden_max(revenue, b_i * (1.0 - 1e-9), grid_points, tol)[0]


def symmetric_equilibrium(
    n: int, B: float, b_unlicensed: float, params: MarketParams
) -> EquilibriumResult:
    """Equilibrium when all n providers hold the same bandwidth B."""
    if n < 1:
        raise DomainError("need at least one provider")
    return solve_nash([B] * n, b_unlicensed, params)


@dataclass(frozen=True)
class AsymptoticLimit:
    """Per-unit-total-bandwidth limit of the symmetric game as N grows."""

    b_small: float
    b_macro: float
    outcome: AssociationOutcome


def asymptotic_limit(B_total: float, b_unlicensed: float,
                     params: MarketParams) -> AsymptoticLimit:
    """Many-provider limit with total licensed bandwidth held at B_total."""
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    c_u = params.lambda_u * b_unlicensed * params.r0
    k = _exit_capacity(B_total, params.lambda_s, params)
    if c_u >= k:
        b_s, b_m = 0.0, B_total
    else:
        # both from the closed form, so a small b_m is not B_total - b_s
        g = params.kappa * params.lambda_s * B_total * params.r0 / k
        b_s = B_total * (1.0 - c_u / k) / (1.0 + g)
        b_m = B_total * (c_u / k + g) / (1.0 + g)
    profile = AllocationProfile._solved(((float(b_m), float(b_s)),), float(b_unlicensed))
    outcome = solve_association(profile, params)
    return AsymptoticLimit(b_small=b_s, b_macro=b_m, outcome=outcome)
