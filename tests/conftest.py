"""Shared fixtures: admissible parameter sets found once per session."""

from __future__ import annotations

import pytest
from hypothesis import settings

from touching_conics.surface import SearchConfig, find_valid_params

# Property tests draw the same examples on every run and keep no example
# database, so a failure replays without stored state.  Hypothesis still
# caches the literals it mines from local modules under .hypothesis/constants.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params_star():
    """The reference admissible parameter set (a = b = 1, double root at 2)."""
    return find_valid_params(SearchConfig())


@pytest.fixture(scope="session")
def params_draws(params_star):
    """Three independently drawn admissible parameter sets."""
    return [
        params_star,
        find_valid_params(SearchConfig(a=2.0, b=1.0, lambda0=1.5, q0_min=0.1)),
        find_valid_params(SearchConfig(a=1.0, b=2.0, lambda0=4.0, q0_min=0.05)),
    ]
