"""Planner benchmark, optimal licensed/unlicensed split, and welfare sweeps.

The planner splits a total band across macro-cells, small-cells and
unlicensed access in closed form.  The market counterpart fixes an
unlicensed slice, hands the rest in equal shares to the providers, and lets
them play the bandwidth game; sweeping the slice traces the welfare curves
and locates the kink where providers abandon small-cells.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import ALPHA_MAX, ALPHA_MIN, DomainError, MarketParams, utility
from .core import brentq, grid_golden_max
from . import monopoly, oligopoly

# Labels for the market scenarios a sweep can trace.
SERIES_PLANNER = "planner"
SERIES_MONOPOLY_REVENUE = "n1_rev"
SERIES_MONOPOLY_WELFARE = "n1_sw"
SERIES_DUOPOLY = "n2"
SERIES_PERFECT_COMPETITION = "ninf"
ALL_SERIES = (
    SERIES_PLANNER,
    SERIES_MONOPOLY_REVENUE,
    SERIES_MONOPOLY_WELFARE,
    SERIES_DUOPOLY,
    SERIES_PERFECT_COMPETITION,
)
DEFAULT_SERIES = (
    SERIES_PLANNER,
    SERIES_MONOPOLY_REVENUE,
    SERIES_DUOPOLY,
    SERIES_PERFECT_COMPETITION,
)
_REVENUE_MARKETS = {SERIES_MONOPOLY_REVENUE: 1, SERIES_DUOPOLY: 2,
                    SERIES_PERFECT_COMPETITION: math.inf}  # label -> number of providers
_SPLIT_GRID = 401  # optimal_split's search grid, before golden-section refinement


class PlannerCase(enum.Enum):
    SMALL_DOMINATES = "small_dominates"          # lambda_s > lambda_u
    TIE = "tie"                                  # lambda_s == lambda_u
    UNLICENSED_DOMINATES = "unlicensed_dominates"  # lambda_s < lambda_u


@dataclass(frozen=True)
class PlannerSolution:
    b_macro: float
    b_small: float
    b_unlicensed: float
    welfare: float
    case_label: PlannerCase
    # Tie case only: the equivalent all-unlicensed representative.
    alternative: tuple | None = None


def _planner_welfare(b_macro, fixed_rate_capacity, params):
    """Sum utility with mobile users on macro and fixed users on one tier."""
    return params.n_mobile * utility(
        b_macro * params.r0 / params.n_mobile, params.alpha
    ) + params.n_fixed * utility(fixed_rate_capacity / params.n_fixed, params.alpha)


def planner_optimal(B: float, params: MarketParams) -> PlannerSolution:
    """Closed-form welfare-maximizing split of a total band."""
    if not 0 < B < math.inf:
        raise DomainError(f"total bandwidth must be positive and finite, got {B}")
    if params.lambda_s > params.lambda_u:
        case, lam = PlannerCase.SMALL_DOMINATES, params.lambda_s
    elif params.lambda_s < params.lambda_u:
        case, lam = PlannerCase.UNLICENSED_DOMINATES, params.lambda_u
    else:
        case, lam = PlannerCase.TIE, params.lambda_s
    try:
        mu = lam ** (1.0 / params.alpha - 1.0)
    except OverflowError:
        mu = math.inf  # alpha near 0: b_macro is 0 at float precision

    b_macro = params.n_mobile * B / (params.n_mobile + mu * params.n_fixed)
    b_fixed = B - b_macro

    if case is PlannerCase.UNLICENSED_DOMINATES:
        b_small, b_unl = 0.0, b_fixed
        cap = params.lambda_u * b_unl * params.r0
        alternative = None
    else:
        # Tie: canonical representative keeps the fixed tier licensed.
        b_small, b_unl = b_fixed, 0.0
        cap = params.lambda_s * b_small * params.r0
        alternative = (0.0, b_fixed) if case is PlannerCase.TIE else None

    return PlannerSolution(
        b_macro=b_macro,
        b_small=b_small,
        b_unlicensed=b_unl,
        welfare=_planner_welfare(b_macro, cap, params),
        case_label=case,
        alternative=alternative,
    )


def alpha_efficiency_threshold(params: MarketParams) -> float:
    """Curvature below which a monopolist's split can still be efficient when
    the unlicensed band is the better technology.

    Unique root of kappa^a * lambda_s/lambda_u + a = 1; only exists for
    lambda_s < lambda_u.
    """
    if params.lambda_s >= params.lambda_u:
        raise DomainError("threshold defined only for lambda_s < lambda_u")
    ratio = params.lambda_s / params.lambda_u

    def f(a):
        return a ** (a / (1.0 - a)) * ratio + a - 1.0

    return brentq(f, ALPHA_MIN, ALPHA_MAX, xtol=1e-14)


def _revenue_market(n, b_l, b_u, params):
    """Outcome of n equal revenue maximizers on b_l licensed; n = inf is the limit."""
    if n == 1:
        return monopoly.optimize_revenue(b_l, b_u, params).outcome
    if n < math.inf:
        return oligopoly.symmetric_equilibrium(n, b_l / n, b_u, params).outcome
    return oligopoly.asymptotic_limit(b_l, b_u, params).outcome


def market_welfare(B: float, b_u: float, n_sps, params: MarketParams,
                   series: str = SERIES_MONOPOLY_REVENUE) -> float:
    """Welfare of ``series`` with b_u unlicensed; ``n_sps`` is unused, as the series fixes n."""
    if series == SERIES_PLANNER:
        return planner_optimal(B, params).welfare
    if series == SERIES_MONOPOLY_WELFARE:
        return monopoly.optimize_welfare(B - b_u, b_u, params).outcome.social_welfare
    if series not in _REVENUE_MARKETS:
        raise DomainError(f"unknown series {series!r}")
    return _revenue_market(_REVENUE_MARKETS[series], B - b_u, b_u, params).social_welfare


def optimal_split(B: float, n_sps, params: MarketParams):
    """Best licensed/unlicensed division under market behavior.

    Returns (b_licensed, b_unlicensed, efficient) where ``efficient`` says the
    achieved welfare matches the planner benchmark to 1e-6 relative.
    """
    if not 0.0 < B < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    if not n_sps >= 1:
        raise DomainError("need at least one provider")

    def welfare_at(b_u):
        return _revenue_market(n_sps, B - b_u, b_u, params).social_welfare

    b_u_star, x_grid, w_grid = grid_golden_max(
        welfare_at, B * (1.0 - 1e-9), _SPLIT_GRID, 1e-9 * B
    )
    w_star = welfare_at(b_u_star)
    # the grid endpoints (notably b_u = 0) may beat the refined interior point
    if w_grid > w_star:
        b_u_star, w_star = x_grid, w_grid
    if b_u_star < 1e-9 * B:
        b_u_star = 0.0
        w_star = welfare_at(0.0)

    benchmark = planner_optimal(B, params).welfare
    efficient = w_star >= benchmark * (1.0 - 1e-6)
    return B - b_u_star, b_u_star, efficient


def find_kink(series: str, B: float, params: MarketParams) -> float | None:
    """Unlicensed bandwidth at which the series transitions to macro-only.

    Each series' exit threshold is linear in the licensed bandwidth,
    K (B - b_u), so the kink solves c b_u = K (B - b_u) with c the unlicensed
    capacity per unit bandwidth: b* = K B / (c + K).  K is ``threshold_sw`` or,
    for n revenue maximizers, ``oligopoly._capacity_bound`` with share 1 / n,
    at unit bandwidth.  None where providers never abandon small-cells on [0, B).
    """
    if not 0.0 < B < math.inf:
        raise DomainError("total bandwidth must be positive and finite")
    if series == SERIES_MONOPOLY_WELFARE:
        k = monopoly.threshold_sw(1.0, params)
    elif series in _REVENUE_MARKETS:
        k = oligopoly._capacity_bound(1.0, 1.0 / _REVENUE_MARKETS[series], params)
    else:
        return None
    c = params.lambda_u * params.r0
    b_star = k * B / (c + k)  # NaN, hence None, where K overflows to inf
    return b_star if b_star < B * (1.0 - 1e-12) else None


@dataclass(frozen=True)
class WelfareCurve:
    grid: tuple
    series: dict
    kinks: dict


def welfare_sweep(B: float, b_u_grid, series, params: MarketParams) -> WelfareCurve:
    """Evaluate welfare for each scenario over a grid of unlicensed slices."""
    planner = planner_optimal(B, params).welfare  # checks 0 < B < inf; constant in b_u
    grid = tuple(float(x) for x in b_u_grid)
    if any(not 0.0 <= x < B for x in grid):
        raise DomainError("grid points must lie in [0, B)")
    for label in series:
        if label not in ALL_SERIES:
            raise DomainError(f"unknown series {label!r}")
    values = {label: [planner] * len(grid) if label == SERIES_PLANNER
              else [market_welfare(B, b_u, None, params, series=label) for b_u in grid]
              for label in series}
    kinks = {
        label: find_kink(label, B, params)
        for label in series
        if label != SERIES_PLANNER
    }
    return WelfareCurve(grid=grid, series=values, kinks=kinks)


def default_grid(B: float, points: int = 201):
    """Uniform sweep grid on [0, B), inset at the top by 5e-7 B to keep licensed > 0."""
    if points < 2:
        raise DomainError(f"a sweep grid needs at least 2 points, got {points}")
    hi = B * (1.0 - 5e-7)
    return [hi * k / (points - 1) for k in range(points)]
