"""Sub-game-perfect Nash equilibrium of the bandwidth game among N providers.

The price stage is closed-form (see ``association``); only the bandwidth
stage needs solving.  The unique equilibrium is found by pinning a candidate
set of providers to macro-only service, solving the aggregate first-order
equality for the small- and macro-cell totals of the rest, and recovering
the individual (b_macro, b_small) splits from the pairwise linear relations.
Monotonicity of the equilibrium in total bandwidth means the pinned set is
always the providers with the least bandwidth, so the first set in that
order whose smallest active provider splits in the interior is the
equilibrium candidate, and the KKT check runs once, on it; when no set
qualifies, the candidate is the macro-only profile.  The aggregate root also
serves the single-provider optimizers in ``monopoly``, and ``_exit_capacity``
is the one closed form of every threshold at which small-cells are abandoned.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .core import DomainError, MarketParams, SolverConsistencyError
from .core import brentq, grid_golden_max
from .association import (
    AllocationProfile,
    AssociationOutcome,
    Regime,
    solve_association,
)

# Candidate small-cell bandwidths at or below this fraction of a provider's
# total count as the macro-only boundary rather than an interior solution.
_PIN_TOL = 1e-10

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
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


def mne_condition(bandwidths, b_unlicensed: float, params: MarketParams) -> bool:
    """True iff the macro-only profile is the Nash equilibrium."""
    bandwidths = list(bandwidths)
    if not bandwidths or any(not 0.0 < b < math.inf for b in bandwidths):
        raise DomainError("every provider needs strictly positive, finite bandwidth")
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    c_u = params.lambda_u * b_unlicensed * params.r0
    return c_u >= mne_capacity_bound(bandwidths, params)


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
    total = sum(bandwidths)
    a_max = params.alpha * (max(bandwidths) / total)
    return _exit_capacity(total, params.lambda_s / (1.0 - a_max), params)


def _marginal_small(b_is: float, r_s: float, params: MarketParams) -> float:
    """d(revenue)/d(b_small) for one provider, per unit R0."""
    a = params.alpha
    return params.lambda_s * (
        r_s ** (-a)
        - a * (params.lambda_s * b_is * params.r0 / params.n_fixed) * r_s ** (-a - 1.0)
    )


def _marginal_macro(b_im: float, r_m: float, params: MarketParams) -> float:
    """d(revenue)/d(b_macro) for one provider, per unit R0."""
    a = params.alpha
    return r_m ** (-a) - a * (b_im * params.r0 / params.n_mobile) * r_m ** (-a - 1.0)


def _log_macro_floor(params):
    """log of the smallest macro total the root search reaches: a normal
    float at whose rate r_m, even with no pinned bandwidth, r_m ** (-a - 1) in
    the residual and ``_marginal_macro`` stays a factor e below the float range."""
    log_r_min = -(_LOG_FLOAT_MAX - 1.0) / (1.0 + params.alpha)
    return max(_LOG_FLOAT_MIN, log_r_min + math.log(params.n_mobile / params.r0))


def _split_totals(u, sum_b_active):
    """(t_s, m) with m / t_s = e^u and t_s + m = ``sum_b_active``.  The smaller
    is formed from u, so it keeps its relative precision, and the larger is
    the rest."""
    if u >= 0.0:
        e = math.exp(-u)
        t_s = sum_b_active * e / (1.0 + e)
        return t_s, sum_b_active - t_s
    if u < _LOG_FLOAT_MIN:  # e^u is subnormal: sum_b_active * e^u would lose digits
        m = math.exp(u + math.log(sum_b_active))
    else:
        e = math.exp(u)
        m = sum_b_active * e / (1.0 + e)
    return sum_b_active - m, m


def _residual(sum_b_active, pinned_b, w, c_u, params):
    """Summed marginal objective of small-cell minus macro bandwidth over the
    active providers, an increasing function of u = log(m / t_s): they hold t_s
    of their ``sum_b_active`` in small-cells and m in macro-cells, next to the
    pinned providers' ``pinned_b`` in macro-cells.  The weight ``w`` is
    n_active - alpha for revenue and 1.0 for the welfare monopolist.
    """
    a, lam_s = params.alpha, params.lambda_s
    r_per_m = params.r0 / params.n_mobile
    r_per_s = lam_s * params.r0 / params.n_fixed
    r_u = c_u / (params.kappa * params.n_fixed)  # the rate r_s at t_s = 0
    a_r_u, a_pinned = a * r_u, a * pinned_b * r_per_m

    def f(u):
        t_s, m = _split_totals(u, sum_b_active)
        r_m = (m + pinned_b) * r_per_m
        r_s = t_s * r_per_s + r_u
        lhs = lam_s * (w * r_s ** -a + a_r_u * r_s ** (-a - 1.0))
        return lhs - (w + a_pinned / r_m) * r_m ** -a

    return f


def _active_root(sum_b_active, pinned_b, w, c_u, params):
    """Root of ``_residual`` over the splits of ``sum_b_active``.  Returns
    (t_s, m), the active providers' small- and macro-cell totals, or None if
    no split with t_s above 1e-12 of the band and m above the
    ``_log_macro_floor`` solves it.

    The search runs in u = log(m / t_s), so its tolerance is relative in both
    totals.  It starts at the closed form log(N_m / N_f) + (1 - 1/alpha)
    log(lambda_s), the root when c_u = 0 and nothing is pinned, and steps out
    by 0.5 * 4^k to the sign change that ``brentq`` then refines.
    """
    f = _residual(sum_b_active, pinned_b, w, c_u, params)
    lo, hi = _log_macro_floor(params) - math.log(sum_b_active), _LOG_ODDS_TOP
    u = math.log(params.n_mobile / params.n_fixed)
    u = min(max(u + (1.0 - 1.0 / params.alpha) * math.log(params.lambda_s), lo), hi)
    f_u, step = f(u), 0.5
    while f_u != 0.0:
        # f increases with u: step down from a positive value, up from a negative one
        v = max(u - step, lo) if f_u > 0.0 else min(u + step, hi)
        f_v = f(v)
        if f_v != 0.0 and (f_v > 0.0) != (f_u > 0.0):
            u = brentq(f, v, u, xtol=4e-16, rtol=8.9e-16)
            break
        if v == lo or v == hi:
            return None  # no root above the floor, or t_s within 1e-12 of the band
        u, f_u, step = v, f_v, 4.0 * step
    return _split_totals(u, sum_b_active)


def _nash_candidate(bandwidths, c_u, params):
    """(pinned set, (b_macro, b_small) pairs) of the first pinned set in the
    smallest-first order whose smallest active provider has an interior
    split, or the macro-only profile, every provider pinned, if none has.

    Active provider i gets t_s / n + c d_i in small-cells and m / n + (1 - c) d_i
    in macro-cells, d_i = b_i - mean_b, where c = 1 / (1 + X) is the slope of
    the pairwise first-order relations and X = lambda_s^2 (N_m / N_f)
    (r_m / r_s)^(alpha + 1).  The smaller of the two is kept and the larger is
    the rest of b_i, so each pair sums to b_i and a macro share far below the
    resolution of b_i (near-linear utility) keeps its precision.
    """
    n = len(bandwidths)
    order = sorted(range(n), key=bandwidths.__getitem__)
    total_b = sum(bandwidths)
    a, kap, lam_s = params.alpha, params.kappa, params.lambda_s
    pinned_b = 0.0  # running sum of the pinned, smallest bandwidths
    for n_pinned, i_min in enumerate(order):
        n_active = n - n_pinned
        sum_b_active = total_b - pinned_b
        root = _active_root(sum_b_active, pinned_b, n_active - a, c_u, params)
        if root is not None:
            t_s, m = root
            r_s = (kap * lam_s * t_s * params.r0 + c_u) / (kap * params.n_fixed)
            r_m = (m + pinned_b) * params.r0 / params.n_mobile
            x = lam_s ** 2 * (params.n_mobile / params.n_fixed) * (r_m / r_s) ** (a + 1.0)
            c, c_bar = 1.0 / (1.0 + x), x / (1.0 + x)
            mean_b, small, macro = sum_b_active / n_active, t_s / n_active, m / n_active

            def pair(b):
                b_m, b_s = macro + c_bar * (b - mean_b), small + c * (b - mean_b)
                return (b_m, b - b_m) if b_m < b_s else (b - b_s, b_s)

            b_min = bandwidths[i_min]
            m_min, s_min = pair(b_min)
            # the first set whose smallest active provider screens as interior
            if s_min > _PIN_TOL * b_min and m_min > 0.0:
                pairs = [(b, 0.0) for b in bandwidths]
                for i in order[n_pinned:]:
                    pairs[i] = pair(bandwidths[i])
                return set(order[:n_pinned]), pairs
        pinned_b += bandwidths[i_min]
    return set(order), [(b, 0.0) for b in bandwidths]


def _check_candidate(pairs, pinned, c_u, params):
    """KKT verification of (b_macro, b_small) pairs; returns per-provider
    residuals or None on failure."""
    kap = params.kappa
    b_macro, b_small = zip(*pairs)
    # at t_s = 0 this is the shadow rate that prices small-cell entry
    r_s = (c_u + kap * params.lambda_s * sum(b_small) * params.r0) / (kap * params.n_fixed)
    if r_s == 0.0:
        return None  # entering small-cells is infinitely profitable
    r_m = sum(b_macro) * params.r0 / params.n_mobile

    residuals = []
    for i, (b_m, b_s) in enumerate(pairs):
        m_macro = _marginal_macro(b_m, r_m, params)
        if i in pinned:
            gain = _marginal_small(0.0, r_s, params) - m_macro
            if gain > 1e-9 * abs(m_macro):
                return None  # pinned provider wants to enter small-cells
            residuals.append(max(gain, 0.0))
        else:
            gap = abs(_marginal_small(b_s, r_s, params) - m_macro)
            if b_s <= _PIN_TOL * (b_m + b_s) or b_m <= 0.0 or gap > 1e-9 * abs(m_macro):
                return None  # not an interior split with equal marginals
            residuals.append(gap)
    return residuals


def solve_nash(bandwidths, b_unlicensed: float, params: MarketParams) -> EquilibriumResult:
    """Compute the unique bandwidth-stage Nash equilibrium."""
    bandwidths = [float(b) for b in bandwidths]
    if not bandwidths or any(not 0.0 < b < math.inf for b in bandwidths):
        raise DomainError("every provider needs strictly positive, finite bandwidth")
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    c_u = params.lambda_u * b_unlicensed * params.r0
    n = len(bandwidths)

    if c_u >= mne_capacity_bound(bandwidths, params):
        pinned, pairs = set(range(n)), [(b, 0.0) for b in bandwidths]
    else:
        # Providers exit small-cells smallest-bandwidth first.
        pinned, pairs = _nash_candidate(bandwidths, c_u, params)
    residuals = _check_candidate(pairs, pinned, c_u, params)
    if residuals is None:
        raise SolverConsistencyError(
            f"the equilibrium candidate for {n} providers fails its KKT check"
        )
    profile = AllocationProfile(pairs, b_unlicensed)
    outcome = solve_association(profile, params)
    if outcome.regime is not Regime.SEPARATE_SERVICE:
        raise SolverConsistencyError("the equilibrium split clears in the mixed regime")
    if not pinned:
        cls = EquilibriumClass.MSNE
    elif len(pinned) == n:
        cls = EquilibriumClass.MNE
    else:
        cls = EquilibriumClass.MPNE
    return EquilibriumResult(
        classification=cls,
        profile=profile,
        macro_only_set=frozenset(pinned),
        outcome=outcome,
        kkt_residuals=tuple(residuals),
    )


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


def asymptotic_limit(
    B_total: float, b_unlicensed: float, params: MarketParams
) -> AsymptoticLimit:
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
    outcome = solve_association(
        AllocationProfile([(b_m, b_s)], b_unlicensed), params
    )
    return AsymptoticLimit(b_small=b_s, b_macro=b_m, outcome=outcome)
