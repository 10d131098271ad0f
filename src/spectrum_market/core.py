"""Scenario parameters and the utility/demand primitives shared by all solvers.

Users have iso-elastic utility u(r) = r^(1-a)/(1-a) with curvature a in (0,1),
so demand, net payoff and the licensed/unlicensed rate ratio all have closed
forms. Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

# Curvature values closer than this to 0 or 1 hit the degenerate
# linear/logarithmic limits and are rejected.
ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6


class MarketModelError(Exception):
    """Base class for errors raised by this package."""


class DomainError(MarketModelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MobileUnservableError(MarketModelError):
    """Mobile users exist but no macro-cell capacity is available."""


class DegenerateScenarioError(MarketModelError):
    """All service capacities are zero; there is no market to clear."""


class SolverConsistencyError(MarketModelError):
    """An internal solver contradiction (theory guarantees this never fires)."""


@dataclass(frozen=True)
class MarketParams:
    """Immutable scenario parameters.

    alpha     -- utility curvature, in (0, 1)
    n_fixed   -- mass of fixed (low-mobility) users
    n_mobile  -- mass of mobile users (macro-only)
    r0        -- macro-cell spectral efficiency (rate per unit bandwidth)
    lambda_s  -- small-cell rate multiplier relative to macro, > 1
    lambda_u  -- unlicensed rate multiplier relative to macro, > 0

    ``kappa`` is derived from alpha once, at construction; it is not a field
    of ``repr``, ``==`` or ``hash``, and ``dataclasses.replace`` recomputes it.
    """

    alpha: float
    n_fixed: float
    n_mobile: float
    r0: float
    lambda_s: float
    lambda_u: float
    kappa: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = (self.alpha, self.n_fixed, self.n_mobile, self.r0, self.lambda_s, self.lambda_u)
        try:
            finite = all(map(math.isfinite, values))
        except (TypeError, OverflowError):  # not a real number, or beyond float range
            finite = False
        if not finite:
            raise DomainError(f"parameters must be finite real numbers, got {self}")
        if not ALPHA_MIN <= self.alpha <= ALPHA_MAX:
            raise DomainError(
                f"alpha must be in [{ALPHA_MIN}, {ALPHA_MAX}], got {self.alpha}"
            )
        if self.n_fixed <= 0 or self.n_mobile <= 0:
            raise DomainError("user masses must be strictly positive")
        if self.r0 <= 0:
            raise DomainError("r0 must be strictly positive")
        if self.lambda_s <= 1:
            raise DomainError(f"lambda_s must exceed 1, got {self.lambda_s}")
        if self.lambda_u <= 0:
            raise DomainError(f"lambda_u must be strictly positive, got {self.lambda_u}")
        object.__setattr__(self, "kappa", kappa(self.alpha))


def utility(r: float, alpha: float) -> float:
    """Iso-elastic utility u(r) = r^(1-alpha)/(1-alpha); u(0) = 0."""
    if r < 0:
        raise DomainError(f"rate must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    return r ** (1.0 - alpha) / (1.0 - alpha)


def marginal_utility(r: float, alpha: float) -> float:
    """u'(r) = r^-alpha; this is the market-clearing price at per-user rate r."""
    if r <= 0:
        raise DomainError(f"rate must be positive, got {r}")
    return r ** (-alpha)


def demand(p: float, alpha: float) -> float:
    """Rate demanded at price p: D(p) = (1/p)^(1/alpha), the inverse of u'."""
    if p <= 0:
        raise DomainError(f"price must be positive, got {p}")
    return (1.0 / p) ** (1.0 / alpha)


def net_payoff(p: float, alpha: float) -> float:
    """Best achievable payoff u(D(p)) - p*D(p) = alpha/(1-alpha) * p^(1-1/alpha)."""
    if p <= 0:
        raise DomainError(f"price must be positive, got {p}")
    return alpha / (1.0 - alpha) * p ** (1.0 - 1.0 / alpha)


def kappa(alpha: float) -> float:
    """Equilibrium ratio of unlicensed to licensed per-user rates.

    kappa = alpha^(1/(1-alpha)), strictly inside (0, 1/e) for alpha in (0,1).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return alpha ** (1.0 / (1.0 - alpha))


def brentq(f, a, b, args=(), *, xtol, rtol=4 * sys.float_info.epsilon):
    """Root of f(x, *args) in a sign-changing bracket [a, b] (Brent 1973, ch. 4).

    Step for step the classic C ``brentq``: stops once the bracket is below
    xtol + rtol*|x|; raises SolverConsistencyError on a same-sign bracket, a
    NaN value of f, or no convergence in 100 iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre, *args)
    if fpre != fpre:
        raise SolverConsistencyError(f"root finder met NaN at x={xpre!r}")
    fcur = f(xcur, *args)
    if fcur != fcur:
        raise SolverConsistencyError(f"root finder met NaN at x={xcur!r}")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverConsistencyError(f"f has one sign on [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:  # where C divides by zero it gets inf or nan and bisects
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur, *args)
        if fcur != fcur:
            raise SolverConsistencyError(f"root finder met NaN at x={xcur!r}")
    raise SolverConsistencyError(f"root finder did not converge in 100 steps (x={xcur!r})")


def grid_golden_max(f, top: float, points: int, tol: float):
    """Maximize unimodal f on [0, top]: the best of a uniform grid of ``points``
    (ties to the smallest x), refined by golden-section search between its
    neighbours down to width ``tol``.  Returns (refined x, grid x, f(grid x))."""
    if points < 2:
        raise DomainError(f"a search grid needs at least 2 points, got {points}")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    xs = [top * k / (points - 1) for k in range(points)]
    vals = [f(x) for x in xs]
    k_best = max(range(points), key=lambda k: (vals[k], -k))
    lo = xs[max(k_best - 1, 0)]
    hi = xs[min(k_best + 1, points - 1)]
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi), xs[k_best], vals[k_best]
