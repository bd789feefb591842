"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import (
    PlatformSpec,
    SteadyStateProblem,
    fully_connected_platform,
    generate_platform,
    line_platform,
    star_platform,
)

# Keep property-based tests fast and deterministic in CI.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: spawns a subprocess or runs a whole example"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def line3():
    """Three clusters in a chain, plenty of everything."""
    return line_platform(3, speed=100.0, g=50.0, bw=10.0, max_connect=4)


@pytest.fixture
def star5():
    """Hub + 4 leaves."""
    return star_platform(4, g=80.0, bw=20.0, max_connect=3)


@pytest.fixture
def complete4():
    """Fully connected 4-cluster platform with heterogeneous speeds."""
    return fully_connected_platform(
        4, speeds=[50.0, 100.0, 150.0, 200.0], g=60.0, bw=15.0, max_connect=2
    )


@pytest.fixture
def random_platform_factory():
    """Factory: (seed, K) -> a moderately heterogeneous random platform."""

    def make(seed: int = 0, n_clusters: int = 6, **overrides):
        defaults = dict(
            n_clusters=n_clusters,
            connectivity=0.5,
            heterogeneity=0.5,
            mean_g=200.0,
            mean_bw=30.0,
            mean_max_connect=10.0,
            speed_heterogeneity=0.5,
        )
        defaults.update(overrides)
        return generate_platform(PlatformSpec(**defaults), rng=seed)

    return make


@pytest.fixture
def problem_factory(random_platform_factory):
    """Factory: seeded random problem with narrow-band payoffs."""

    def make(seed: int = 0, n_clusters: int = 6, objective: str = "maxmin", **overrides):
        platform = random_platform_factory(seed, n_clusters, **overrides)
        payoffs = np.random.default_rng(seed + 999).uniform(0.8, 1.2, n_clusters)
        return SteadyStateProblem(platform, payoffs, objective=objective)

    return make
