"""Shared fixtures: one small city + discretized region per test session.

Region building runs shortest paths from the whole landmark set, so the expensive
fixtures are session-scoped and *read-only by convention* — tests that mutate
engine state build their own engine from the shared region (cheap).
"""

from __future__ import annotations

import random

import pytest

from repro.config import XARConfig
from repro.core import XAREngine
from repro.discretization import build_region
from repro.roadnet import manhattan_city
from repro.workloads import NYCWorkloadGenerator, trips_to_requests


@pytest.fixture(scope="session")
def city():
    """A mid-size Manhattan-style lattice (480 nodes)."""
    return manhattan_city(n_avenues=12, n_streets=40)


@pytest.fixture(scope="session")
def small_city():
    """A tiny lattice for tests that rebuild regions themselves."""
    return manhattan_city(n_avenues=6, n_streets=12)


@pytest.fixture(scope="session")
def config():
    return XARConfig.validated()


@pytest.fixture(scope="session")
def region(city, config):
    """The session's discretized region over ``city``."""
    return build_region(city, config)


@pytest.fixture(scope="session")
def small_region(small_city, config):
    return build_region(small_city, config)


@pytest.fixture
def engine(region):
    """A fresh XAR engine per test (region shared, state isolated)."""
    return XAREngine(region)


@pytest.fixture(scope="session")
def workload(city):
    """A deterministic 400-request stream over ``city``."""
    generator = NYCWorkloadGenerator(city, seed=1234)
    return trips_to_requests(generator.generate(400, start_hour=7.0, end_hour=10.0))


@pytest.fixture
def rng():
    return random.Random(99)
