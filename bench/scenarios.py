"""Seeded scenario generator shared by the warm workloads.

Draws are plain numbers, never package objects: the operation being timed
builds ``MarketParams`` itself, so a solver receives only generated inputs and
a narrowed accepted domain shows up as failed operations.

The domain is the one ``MarketParams`` accepted when the benchmark was
defined: alpha in [1e-6, 1 - 1e-6], positive user masses and r0,
lambda_s > 1, lambda_u > 0.  The unbounded directions are drawn log-uniformly
over wide ranges, and a fixed share of draws has alpha < 0.1 (the
near-linear utility regime).
"""

from __future__ import annotations

import math
import random

ALPHA_MIN = 1e-6
ALPHA_MAX = 1.0 - 1e-6
LOW_ALPHA = 0.1
LOW_ALPHA_SHARE = 0.1

RANGES = {
    "n_fixed": (0.1, 1e4),
    "n_mobile": (0.1, 1e4),
    "r0": (0.01, 1e3),
    "lambda_s_minus_1": (1e-3, 1e2),
    "lambda_u": (1e-3, 1e2),
    "bandwidth": (0.01, 1e2),
    "unlicensed_over_licensed": (1e-4, 1e2),
}
ZERO_UNLICENSED_SHARE = 0.1


class ScenarioGenerator:
    """All random inputs of a run come from one ``random.Random(seed)``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def _log_uniform(self, key: str) -> float:
        lo, hi = RANGES[key]
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def params(self) -> dict:
        if self.rng.random() < LOW_ALPHA_SHARE:
            alpha = self.rng.uniform(ALPHA_MIN, LOW_ALPHA)
        else:
            alpha = self.rng.uniform(LOW_ALPHA, ALPHA_MAX)
        return {
            "alpha": alpha,
            "n_fixed": self._log_uniform("n_fixed"),
            "n_mobile": self._log_uniform("n_mobile"),
            "r0": self._log_uniform("r0"),
            "lambda_s": 1.0 + self._log_uniform("lambda_s_minus_1"),
            "lambda_u": self._log_uniform("lambda_u"),
        }

    def bandwidths(self, n: int) -> list:
        return [self._log_uniform("bandwidth") for _ in range(n)]

    def unlicensed(self, licensed_total: float) -> float:
        if self.rng.random() < ZERO_UNLICENSED_SHARE:
            return 0.0
        return licensed_total * self._log_uniform("unlicensed_over_licensed")

    def integer(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)


def alpha_band(params: dict) -> str:
    return "alpha<0.1" if params["alpha"] < LOW_ALPHA else "alpha>=0.1"
