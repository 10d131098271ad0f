"""Equilibrium engine for two-tier cellular markets with unlicensed access.

Computes prices, user associations, optimal bandwidth allocations and Nash
equilibria for markets where providers split licensed spectrum between
macro- and small-cells while competing with a free unlicensed band, and
quantifies how the licensed/unlicensed split affects social welfare.
"""

from .core import (
    DegenerateScenarioError,
    DomainError,
    MarketModelError,
    MarketParams,
    MobileUnservableError,
    SolverConsistencyError,
    demand,
    kappa,
    net_payoff,
    utility,
)
from .association import (
    AllocationProfile,
    AssociationOutcome,
    Regime,
    regime_threshold,
    small_cell_shadow_rate,
    solve_association,
)
from .monopoly import (
    MonopolySolution,
    Objective,
    beta_tilde,
    optimize_revenue,
    optimize_welfare,
    threshold_crossover,
    threshold_rev,
    threshold_sw,
)
from .oligopoly import (
    AsymptoticLimit,
    EquilibriumClass,
    EquilibriumResult,
    asymptotic_limit,
    best_response,
    mne_condition,
    solve_nash,
    symmetric_equilibrium,
)
from .welfare import (
    PlannerCase,
    PlannerSolution,
    WelfareCurve,
    optimal_split,
    planner_optimal,
    welfare_sweep,
)

__version__ = "0.1.0"
