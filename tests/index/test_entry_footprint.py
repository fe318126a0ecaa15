"""Footprint of the per-ride index entries at the benchmark city.

The entries are the per-ride half of the paper's index (Section VI): each
ride's pass-through visits, reachable clusters and supports.  Held as
Python objects (a ``ReachableInfo`` with a ``set`` of supports per
reachable cluster) they averaged ≈ 31 kB a ride here; held as a few arrays
per ride they must stay under 4 kB.
"""

from __future__ import annotations

import random

import pytest

from repro.config import XARConfig
from repro.core import XAREngine
from repro.discretization import build_region
from repro.index import deep_size_bytes
from repro.roadnet import manhattan_city
from repro.workloads import NYCWorkloadGenerator, trips_to_requests

N_RIDES = 250
MAX_MEAN_ENTRY_BYTES = 4 * 1024
_ARRAYS = (
    "visit_f", "visit_i", "reach_f", "reach_i", "supports",
    "segment_landmarks", "segment_length_m",
)


@pytest.fixture(scope="module")
def bench_engine():
    """The Fig. 3 benchmark city (20 x 60 lattice, default configuration)
    with 250 ride offers drawn like ``benchmarks/conftest.populate_xar``."""
    city = manhattan_city(n_avenues=20, n_streets=60)
    region = build_region(city, XARConfig.validated())
    requests = trips_to_requests(
        NYCWorkloadGenerator(city, seed=2024).generate(2000, 6.0, 12.0)
    )
    engine = XAREngine(region)
    for request in random.Random(5).sample(requests, N_RIDES):
        engine.create_ride(request.source, request.destination, request.window_start_s)
    return engine


def test_mean_entry_is_at_most_4_kb(bench_engine):
    entries = bench_engine.ride_entries
    assert len(entries) == N_RIDES
    mean = deep_size_bytes(entries) / len(entries)
    # The entries are not trivially small: ~42 reachable clusters a ride.
    reachable = sum(len(entry.reachable) for entry in entries.values())
    assert reachable / len(entries) > 20
    assert mean <= MAX_MEAN_ENTRY_BYTES, f"{mean:.0f} B per entry"


def test_entry_arrays_own_their_buffers(bench_engine):
    """No entry array is a view into a larger buffer the deep size would
    not see (and that would stay alive behind it)."""
    for entry in bench_engine.ride_entries.values():
        for name in _ARRAYS:
            assert getattr(entry, name).base is None, name
