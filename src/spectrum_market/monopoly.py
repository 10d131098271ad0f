"""Single-provider bandwidth allocation for revenue or welfare maximization.

Both objectives are strictly concave in the small-cell bandwidth once the
full band is used, so the optimum is the macro-only boundary when the
unlicensed capacity exceeds a closed-form threshold, and otherwise the
unique first-order root on (0, B).  That root is the one-provider case of
the bandwidth game's, found by ``oligopoly._active_root`` with the objective
as its weight, and both thresholds are ``oligopoly._exit_capacity`` with the
objective's base.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import DomainError, MarketParams, SolverConsistencyError, brentq
from .oligopoly import _active_root, _exit_capacity
from .association import (
    AllocationProfile,
    AssociationOutcome,
    Regime,
    solve_association,
)


class Objective(enum.Enum):
    REVENUE = "revenue"
    SOCIAL_WELFARE = "social_welfare"


@dataclass(frozen=True)
class MonopolySolution:
    objective: Objective
    b_macro: float
    b_small: float
    outcome: AssociationOutcome
    boundary: bool  # True when the optimum pins b_small to 0


def beta_tilde(params: MarketParams) -> float:
    """Small-cell fraction of the optimum when there is no unlicensed band."""
    return params.n_fixed / (
        params.n_fixed + params.n_mobile * params.lambda_s ** (1.0 - 1.0 / params.alpha)
    )


def threshold_rev(B: float, params: MarketParams) -> float:
    """Unlicensed capacity above which a revenue maximizer abandons small-cells."""
    return _exit_capacity(B, params.lambda_s / (1.0 - params.alpha), params)


def threshold_sw(B: float, params: MarketParams) -> float:
    """Unlicensed capacity above which a welfare maximizer abandons small-cells."""
    return _exit_capacity(B, (params.alpha + 1.0) * params.lambda_s, params)


def _solve(B, b_unlicensed, params, objective) -> MonopolySolution:
    if not 0.0 < B < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    if not 0.0 <= b_unlicensed < math.inf:
        raise DomainError("unlicensed bandwidth must be non-negative and finite")
    c_u = params.lambda_u * b_unlicensed * params.r0
    if objective is Objective.REVENUE:
        cutoff, w = threshold_rev(B, params), 1.0 - params.alpha
    else:
        cutoff, w = threshold_sw(B, params), 1.0

    boundary = c_u >= cutoff
    if boundary:
        b_s, b_m = 0.0, B
    else:
        root = _active_root(B, 0.0, w, c_u, params)
        if root is None:
            raise SolverConsistencyError(
                f"first-order condition has no interior root on (0, {B})"
            )
        b_s, b_m = root

    profile = AllocationProfile._solved(((float(b_m), float(b_s)),), float(b_unlicensed))
    outcome = solve_association(profile, params)
    if outcome.regime is not Regime.SEPARATE_SERVICE:
        raise SolverConsistencyError("the optimal split clears in the mixed regime")
    return MonopolySolution(objective, b_m, b_s, outcome, boundary)


def optimize_revenue(B: float, b_unlicensed: float, params: MarketParams) -> MonopolySolution:
    """Revenue-maximizing split of licensed bandwidth B."""
    return _solve(B, b_unlicensed, params, Objective.REVENUE)


def optimize_welfare(B: float, b_unlicensed: float, params: MarketParams) -> MonopolySolution:
    """Welfare-maximizing split of licensed bandwidth B."""
    return _solve(B, b_unlicensed, params, Objective.SOCIAL_WELFARE)


def crossover_beta(alpha: float) -> float:
    """Unique positive root of (1-a)(1+beta)^(1+a) - beta = 1-a.

    beta = 0 always solves the equation; the solver brackets it away and
    returns the strictly positive root.
    """

    def f(beta):
        return (1.0 - alpha) * (1.0 + beta) ** (1.0 + alpha) - beta - (1.0 - alpha)

    hi = 1.0
    while f(hi) <= 0:
        hi *= 2.0
        if hi > 1e12:
            raise SolverConsistencyError("crossover equation has no positive root")
    # f < 0 just right of zero (slope -alpha^2 at the origin)
    return brentq(f, 1e-9, hi, xtol=1e-14, rtol=8.9e-16)


def threshold_crossover(B: float, params: MarketParams) -> float:
    """Unlicensed capacity at which small-cell bandwidth dips back below the
    no-unlicensed optimum: below it the revenue maximizer over-invests in
    small-cells, above it under-invests."""
    if not 0.0 < B < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    beta_star = crossover_beta(params.alpha)
    b_s_tilde = beta_tilde(params) * B
    return beta_star * params.kappa * params.lambda_s * b_s_tilde * params.r0
