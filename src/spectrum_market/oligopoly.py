"""Sub-game-perfect Nash equilibrium of the bandwidth game among N providers.

The price stage is closed-form (see ``association``); only the bandwidth
stage needs solving.  The unique equilibrium is found by pinning a candidate
set of providers to macro-only service, solving the aggregate first-order
equality for the total small-cell bandwidth of the rest, and recovering the
individual splits from the pairwise linear relations.  Monotonicity of the
equilibrium in total bandwidth means the pinned set is always the providers
with the least bandwidth, so at most N+1 candidate sets need checking; the
last of them, every provider pinned, is the macro-only profile.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import DomainError, MarketParams, SolverConsistencyError
from .core import brentq, grid_golden_max
from .association import (
    AllocationProfile,
    AssociationOutcome,
    Regime,
    small_cell_shadow_rate,
    solve_association,
)

# Candidate small-cell bandwidths at or below this fraction of a provider's
# total count as the macro-only boundary rather than an interior solution.
_PIN_TOL = 1e-10


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


def mne_capacity_bound(bandwidths, params: MarketParams) -> float:
    """Unlicensed capacity at which all providers abandon small-cells."""
    total = sum(bandwidths)
    b_max = max(bandwidths)
    a = params.alpha
    return (
        params.r0 * total
        * (1.0 - a * b_max / total) ** (-1.0 / a)
        * params.kappa * params.n_fixed * params.lambda_s ** (1.0 / a)
        / params.n_mobile
    )


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


def _active_root(total_b, sum_b_active, n_active, c_u, params):
    """Solve the first-order system with ``n_active`` providers, holding
    ``sum_b_active`` of the ``total_b`` bandwidth, in small-cells.

    Returns (t_s, c): the active providers' total small-cell bandwidth and
    the slope c of the pairwise relation delta b_small = c * delta b_total,
    so provider i's split is t_s / n_active + c * (b_i - sum_b_active /
    n_active).  Returns None if the system has no solution with positive
    total small-cell bandwidth.
    """
    a = params.alpha
    kap = params.kappa
    n_f, n_m, r0, lam_s = params.n_fixed, params.n_mobile, params.r0, params.lambda_s

    def residual(t_s):
        # sum of the active providers' small-vs-macro marginal differences
        r_s = (c_u + kap * lam_s * t_s * r0) / (kap * n_f)
        r_m = (total_b - t_s) * r0 / n_m
        lhs = lam_s * (
            n_active * r_s ** (-a)
            - a * (lam_s * t_s * r0 / n_f) * r_s ** (-a - 1.0)
        )
        rhs = (
            n_active * r_m ** (-a)
            - a * ((sum_b_active - t_s) * r0 / n_m) * r_m ** (-a - 1.0)
        )
        return lhs - rhs

    lo = 1e-14 * sum_b_active
    hi = sum_b_active - lo
    if c_u == 0.0:
        f_lo = math.inf  # r_s -> 0 as t_s -> 0, marginal revenue diverges
    else:
        f_lo = residual(lo)
    if f_lo <= 0:
        return None  # active set collectively prefers no small-cell bandwidth
    if residual(hi) >= 0:
        return None  # would require a provider to abandon macro-cells
    t_s = brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16)

    r_s = (c_u + kap * lam_s * t_s * r0) / (kap * n_f)
    r_m = (total_b - t_s) * r0 / n_m
    u2_s = -a * r_s ** (-a - 1.0)
    u2_m = -a * r_m ** (-a - 1.0)
    return t_s, (u2_m / n_m) / (lam_s ** 2 * u2_s / n_f + u2_m / n_m)


def _nash_candidates(bandwidths, c_u, params):
    """Yield (pinned set, small-cell split) for each pinned set of the
    smallest-first order whose smallest active provider has an interior
    split; the split is built only for those.  The macro-only profile,
    every provider pinned, comes last."""
    n = len(bandwidths)
    order = sorted(range(n), key=bandwidths.__getitem__)
    total_b = sum(bandwidths)
    pinned_b = 0.0  # running sum of the pinned, smallest bandwidths
    for n_pinned, i_min in enumerate(order):
        sum_b_active = total_b - pinned_b
        pinned_b += bandwidths[i_min]
        n_active = n - n_pinned
        root = _active_root(total_b, sum_b_active, n_active, c_u, params)
        if root is None:
            continue
        t_s, c = root
        share, mean_b = t_s / n_active, sum_b_active / n_active
        b_min = bandwidths[i_min]
        s_min = share + c * (b_min - mean_b)
        if s_min <= _PIN_TOL * b_min or s_min >= b_min:
            continue  # the KKT check would reject this split; skip building it
        b_small = [0.0] * n
        for i in order[n_pinned:]:
            b_small[i] = share + c * (bandwidths[i] - mean_b)
        yield set(order[:n_pinned]), b_small
    yield set(order), [0.0] * n


def _check_candidate(bandwidths, b_small, pinned, c_u, params):
    """KKT verification; returns per-provider residuals or None on failure."""
    kap = params.kappa
    n_f, r0, lam_s = params.n_fixed, params.r0, params.lambda_s
    total_b = sum(bandwidths)
    t_s = sum(b_small)
    if t_s > 0:
        r_s = (c_u + kap * lam_s * t_s * r0) / (kap * n_f)
    else:
        r_s = small_cell_shadow_rate(c_u, params)
        if r_s == 0.0:
            return None  # entering small-cells is infinitely profitable
    r_m = (total_b - t_s) * r0 / params.n_mobile

    residuals = []
    for i, b_i in enumerate(bandwidths):
        m_macro = _marginal_macro(b_i - b_small[i], r_m, params)
        if i in pinned:
            gain = _marginal_small(0.0, r_s, params) - m_macro
            if gain > 1e-9 * abs(m_macro):
                return None  # pinned provider wants to enter small-cells
            residuals.append(max(gain, 0.0))
        else:
            if b_small[i] <= _PIN_TOL * b_i or b_small[i] >= b_i:
                return None  # not an interior split
            residuals.append(abs(_marginal_small(b_small[i], r_s, params) - m_macro))
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
        candidates = [(set(range(n)), [0.0] * n)]
    else:
        # Providers exit small-cells smallest-bandwidth first.
        candidates = _nash_candidates(bandwidths, c_u, params)
    for pinned, b_small in candidates:
        residuals = _check_candidate(bandwidths, b_small, pinned, c_u, params)
        if residuals is None:
            continue
        profile = AllocationProfile(
            [(b - s, s) for b, s in zip(bandwidths, b_small)], b_unlicensed
        )
        outcome = solve_association(profile, params)
        assert outcome.regime is Regime.SEPARATE_SERVICE
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
    raise SolverConsistencyError(f"no consistent equilibrium assignment found for {n} providers")


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
    if not 0.0 < B_total < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    a = params.alpha
    kap = params.kappa
    n_f, n_m, lam_s, lam_u = (
        params.n_fixed, params.n_mobile, params.lambda_s, params.lambda_u,
    )
    b_u = b_unlicensed

    bound = B_total * kap * n_f * lam_s ** (1.0 / a) / n_m
    if b_u * lam_u >= bound:
        b_s = 0.0
    else:
        g = lam_s * n_m / (lam_s ** (1.0 / a) * n_f)
        b_s = (B_total - b_u * lam_u * n_m / (kap * n_f * lam_s ** (1.0 / a))) / (1.0 + g)
    b_m = B_total - b_s
    outcome = solve_association(
        AllocationProfile([(b_m, b_s)], b_unlicensed), params
    )
    return AsymptoticLimit(b_small=b_s, b_macro=b_m, outcome=outcome)
