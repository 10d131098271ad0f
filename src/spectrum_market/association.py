"""Price and user-association equilibrium for fixed bandwidth allocations.

Given every provider's (macro, small) bandwidth split plus the unlicensed
bandwidth, the market clears in closed form: mobile users fill macro-cells,
fixed users split between small-cells and the free unlicensed band (and, when
small-cell bandwidth is scarce, spill into macro-cells -- the mixed regime).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DegenerateScenarioError,
    DomainError,
    MarketParams,
    MobileUnservableError,
)


class Regime(enum.Enum):
    MIXED_SERVICE = "mixed"        # macro-cells serve mobile plus some fixed users
    SEPARATE_SERVICE = "separate"  # macro-cells serve mobile users only


@dataclass(frozen=True)
class AllocationProfile:
    """Per-provider (b_macro, b_small) pairs plus the shared unlicensed band."""

    per_sp: tuple
    b_unlicensed: float = 0.0

    def __init__(self, per_sp, b_unlicensed=0.0):
        pairs = []
        for bm, bs in per_sp:
            bm, bs = float(bm), float(bs)
            if not (0.0 <= bm < math.inf and 0.0 <= bs < math.inf):
                raise DomainError("bandwidths must be non-negative and finite")
            pairs.append((bm, bs))
        if not pairs:
            raise DomainError("profile needs at least one provider")
        if not 0.0 <= b_unlicensed < math.inf:
            raise DomainError("unlicensed bandwidth must be non-negative and finite")
        object.__setattr__(self, "per_sp", tuple(pairs))
        object.__setattr__(self, "b_unlicensed", float(b_unlicensed))

    @classmethod
    def _solved(cls, per_sp: tuple, b_unlicensed: float):
        """A solver's checked tuple of (float, float) pairs and float band, not re-validated."""
        profile = object.__new__(cls)
        profile.__dict__.update(per_sp=per_sp, b_unlicensed=b_unlicensed)
        return profile

    @property
    def total_b_macro(self) -> float:
        return sum(bm for bm, _ in self.per_sp)

    @property
    def total_b_small(self) -> float:
        return sum(bs for _, bs in self.per_sp)

    def capacities(self, params: MarketParams):
        """Aggregate (macro, small, unlicensed) rate capacities."""
        r0 = params.r0
        return (
            self.total_b_macro * r0,
            params.lambda_s * self.total_b_small * r0,
            params.lambda_u * self.b_unlicensed * r0,
        )


class AssociationOutcome(NamedTuple):
    """Market-clearing regime, user masses, per-user rates, prices and welfare.

    A tier that attracts no users carries rate 0 and price ``None`` (inactive);
    prices are never serialized as infinities.  The record is an immutable
    named tuple: it unpacks, and compares equal to a tuple, field by field.
    """

    regime: Regime
    k_macro: float
    k_small: float
    k_unlicensed: float
    r_macro: float
    r_small: float
    r_unlicensed: float
    p_macro: float | None
    p_small: float | None
    revenue_per_sp: tuple = ()
    social_welfare: float = 0.0

    @property
    def total_revenue(self) -> float:
        return sum(self.revenue_per_sp)


def regime_threshold(profile: AllocationProfile, params: MarketParams) -> float:
    """Small-cell bandwidth below which the mixed-service regime holds.

    Returns B_S0 = max(kappa*N_f*B_M*R0 - N_m*C_U, 0) / (kappa*N_m*lambda_s*R0);
    total small-cell bandwidth strictly below this implies mixed service.
    """
    _, _, c_u = profile.capacities(params)
    return _threshold(profile.total_b_macro, c_u, params)


def _threshold(total_b_macro: float, c_u: float, params: MarketParams) -> float:
    k = params.kappa
    numer = k * params.n_fixed * total_b_macro * params.r0 - params.n_mobile * c_u
    if numer <= 0:
        return 0.0
    return numer / (k * params.n_mobile * params.lambda_s * params.r0)


def small_cell_shadow_rate(c_unlicensed: float, params: MarketParams) -> float:
    """One-sided limit of the small-cell rate as its bandwidth shrinks to 0.

    The per-user small-cell rate is discontinuous at zero bandwidth; entry
    deviations must be priced at this limit, C_U/(kappa*N_f), not at 0.
    """
    return c_unlicensed / (params.kappa * params.n_fixed)


def solve_association(profile: AllocationProfile, params: MarketParams) -> AssociationOutcome:
    """Compute the unique market-clearing association equilibrium.

    The capacities, prices and utilities are those of
    ``AllocationProfile.capacities``, ``marginal_utility`` and ``utility``,
    written out in the same order of operations, so the floats are theirs.
    """
    per_sp = profile.per_sp
    if len(per_sp) == 1:
        ((b_m, b_s),) = per_sp
        total_b_macro, total_b_small = 0.0 + b_m, 0.0 + b_s  # as sum() adds -0.0
    else:
        b_macro, b_small = zip(*per_sp)
        total_b_macro, total_b_small = sum(b_macro), sum(b_small)
    r0, lam_s = params.r0, params.lambda_s
    c_m = total_b_macro * r0
    c_s = lam_s * total_b_small * r0
    c_u = params.lambda_u * profile.b_unlicensed * r0
    if not c_m + c_s + c_u < math.inf:
        raise DomainError("rate capacities overflow: bandwidth times lambda * r0 is not finite")
    if c_m == 0.0 and c_s == 0.0 and c_u == 0.0:
        raise DegenerateScenarioError("all service capacities are zero")
    if c_m == 0.0 and params.n_mobile > 0:
        raise MobileUnservableError(
            "mobile users unservable: no macro-cell capacity allocated"
        )

    alpha = params.alpha
    kap = params.kappa
    n_f, n_m = params.n_fixed, params.n_mobile

    if total_b_small < _threshold(total_b_macro, c_u, params):
        n_t = n_f + n_m
        denom = c_u + kap * (c_m + c_s)
        k_u = n_t * c_u / denom
        k_m = n_t * kap * c_m / denom
        k_s = n_t * kap * c_s / denom
        r_m = denom / (kap * n_t)  # common per-user rate in licensed spectrum
        r_s = r_m if k_s > 0 else 0.0
        r_u = kap * r_m if k_u > 0 else 0.0
        regime = Regime.MIXED_SERVICE
    else:
        k_m = n_m
        r_m = c_m / n_m
        denom = kap * c_s + c_u
        if denom > 0:
            k_s = n_f * kap * c_s / denom
            k_u = n_f * c_u / denom
        else:
            # No small-cell or unlicensed capacity; threshold logic already
            # routed the fixed users to macro-cells (mixed), so this branch
            # only occurs when there are no fixed users to serve.
            k_s = k_u = 0.0
        r_s = c_s / k_s if k_s > 0 else 0.0
        r_u = c_u / k_u if k_u > 0 else 0.0
        regime = Regime.SEPARATE_SERVICE

    # prices are u'(r) = r^-alpha; an inactive small-cell tier has none
    if r_m <= 0:
        raise DomainError(f"rate must be positive, got {r_m}")
    p_m = r_m ** -alpha
    if k_s > 0:
        if r_s <= 0:
            raise DomainError(f"rate must be positive, got {r_s}")
        p_s = p_s_val = r_s ** -alpha
    else:
        p_s, p_s_val = None, 0.0
    if len(per_sp) == 1:
        revenues = (b_m * r0 * p_m + lam_s * b_s * r0 * p_s_val,)
    else:
        revenues = tuple([bm * r0 * p_m + lam_s * bs * r0 * p_s_val for bm, bs in per_sp])

    e = 1.0 - alpha  # u(r) = r^e / e, and u(0) = 0
    sw = (
        k_m * (r_m ** e / e)
        + k_s * (r_s ** e / e if r_s else 0.0)
        + k_u * (r_u ** e / e if r_u else 0.0)
    )
    return AssociationOutcome._make((regime, k_m, k_s, k_u, r_m, r_s, r_u, p_m, p_s,
                                     revenues, sw))
