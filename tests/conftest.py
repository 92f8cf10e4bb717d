"""Shared fixtures: admissible parameter sets found once per session."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import settings

from touching_conics.errors import NotFoundError
from touching_conics.surface import SearchConfig, find_valid_params

# Property tests draw the same examples on every run and keep no example
# database, so a failure replays without stored state.  Hypothesis still
# caches the literals it mines from local modules under .hypothesis/constants.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


# the targets of the reference draws, the first that of params_star
REFERENCE_TARGETS = (
    SearchConfig(),
    SearchConfig(a=2.0, b=1.0, lambda0=1.5, q0_min=0.1),
    SearchConfig(a=1.0, b=2.0, lambda0=4.0, q0_min=0.05),
)


@pytest.fixture(scope="session")
def params_star():
    """The reference admissible parameter set (a = b = 1, double root at 2)."""
    return find_valid_params(REFERENCE_TARGETS[0])


@pytest.fixture(scope="session")
def params_draws(params_star):
    """Three independently drawn admissible parameter sets."""
    return [params_star] + [find_valid_params(target) for target in REFERENCE_TARGETS[1:]]


@pytest.fixture(scope="session")
def region_sets(params_draws):
    """The reference draws and 32 seeded admissible sets over the box of the
    benchmark's sweep: a and b log-uniform in [1/4, 4], lambda0 - b/a in
    [0.25, 6.25] and q0_min in [0.05, 3]; targets without an admissible set
    are skipped."""
    rng = random.Random(18)
    sets = list(params_draws)
    while len(sets) < len(params_draws) + 32:
        a, b = (math.exp(rng.uniform(math.log(0.25), math.log(4.0))) for _ in range(2))
        search = SearchConfig(a=a, b=b, lambda0=b / a + rng.uniform(0.25, 6.25), q0_min=rng.uniform(0.05, 3.0))
        try:
            sets.append(find_valid_params(search))
        except NotFoundError:
            continue
    return sets


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@pytest.fixture(scope="session")
def atlas_sets():
    """The first 300 admissible sets of the region's atlas, drawn with seed 1:
    a and b log-uniform in [0.1, 10], lambda0 - b/a log-uniform in
    [0.02, 20] and q0_min uniform in [0.01, 5], each target's q0 swept up to
    50 q0_min in 100 steps; targets without an admissible set (3 of the
    first 303) are skipped."""
    rng = random.Random(1)
    sets = []
    while len(sets) < 300:
        a, b = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0)
        lambda0 = b / a + _log_uniform(rng, 0.02, 20.0)
        q0_min = rng.uniform(0.01, 5.0)
        search = SearchConfig(a=a, b=b, lambda0=lambda0, q0_min=q0_min, q0_max=50.0 * q0_min, q0_steps=100)
        try:
            sets.append(find_valid_params(search))
        except NotFoundError:
            continue
    return sets
