import random

import pytest

from spectrum_market.cli import _FIGURE_SCENARIOS
from spectrum_market.core import MarketParams

# One line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the test summary (pytest's fd capture would otherwise hide
# them from the run log).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def base_params():
    """The parameter set used throughout the published figures."""
    return MarketParams(alpha=0.5, n_fixed=50, n_mobile=50, r0=50, lambda_s=4, lambda_u=3)


def random_params(rng: random.Random) -> MarketParams:
    return MarketParams(
        alpha=rng.uniform(0.1, 0.9),
        n_fixed=rng.uniform(10, 100),
        n_mobile=rng.uniform(10, 100),
        r0=rng.uniform(5, 100),
        lambda_s=rng.uniform(1.01, 8.0),
        lambda_u=rng.uniform(0.05, 12.0),
    )


def wide_params(rng: random.Random, alpha: float) -> MarketParams:
    """MarketParams at ``alpha`` with the rest drawn log-uniformly over wide
    magnitudes: user masses 0.1 to 1e4, r0 0.01 to 1e3, lambda_s - 1 and
    lambda_u 1e-3 to 1e2."""
    return MarketParams(
        alpha=alpha,
        n_fixed=10 ** rng.uniform(-1, 4),
        n_mobile=10 ** rng.uniform(-1, 4),
        r0=10 ** rng.uniform(-2, 3),
        lambda_s=1.0 + 10 ** rng.uniform(-3, 2),
        lambda_u=10 ** rng.uniform(-3, 2),
    )


def single_provider_draws(seed: int, count: int):
    """(B, b_u, params): the four figure parameter sets at B = 2, then
    ``count`` seeded draws over wide magnitudes, every third with alpha < 0.1
    (near-linear utility)."""
    for raw in _FIGURE_SCENARIOS.values():
        params = MarketParams(**raw["params"])
        for b_u in (0.0, 0.1, 0.5, 2.0, 10.0):
            yield 2.0, b_u, params
    rng = random.Random(seed)
    for k in range(count):
        params = wide_params(
            rng, rng.uniform(0.005, 0.1) if k % 3 == 0 else rng.uniform(0.1, 0.95))
        B = 10 ** rng.uniform(-2, 2)
        yield B, rng.choice([0.0, B * 10 ** rng.uniform(-4, 2)]), params
