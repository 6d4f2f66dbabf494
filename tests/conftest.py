"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cloud.instance import R4_FAMILY
from repro.cloud.market import SpotMarket
from repro.graph import generators
from repro.utils.units import HOURS
from tests import scalar_oracle


@pytest.fixture(scope="session")
def small_market() -> SpotMarket:
    """A short synthetic market shared by fast tests (5-day traces)."""
    return SpotMarket.synthetic(
        R4_FAMILY,
        duration=5 * 24 * HOURS,
        history_duration=5 * 24 * HOURS,
        seed=1234,
    )


@pytest.fixture(scope="session")
def long_market() -> SpotMarket:
    """A longer market for simulation tests needing headroom."""
    return SpotMarket.synthetic(
        R4_FAMILY,
        duration=15 * 24 * HOURS,
        history_duration=10 * 24 * HOURS,
        seed=99,
    )


@pytest.fixture(scope="session")
def clique_ring():
    """Deterministic ring of 8 cliques of 6 vertices."""
    return scalar_oracle.ring_of_cliques(8, 6)


@pytest.fixture(scope="session")
def social_graph():
    """A small power-law graph (1000 vertices)."""
    return generators.power_law_social(1000, avg_degree=10, seed=5)


@pytest.fixture(scope="session")
def community():
    """A small planted-partition graph with clear communities."""
    return generators.community_graph(
        1200, num_communities=12, avg_degree=14, mixing=0.05, seed=9
    )
