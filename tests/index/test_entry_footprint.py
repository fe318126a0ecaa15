"""Footprint of the per-ride index state at the benchmark city.

The entries are the per-ride half of the paper's index (Section VI): each
ride's pass-through visits, reachable clusters and supports.  Held as
Python objects (a ``ReachableInfo`` with a ``set`` of supports per
reachable cluster) they averaged ≈ 31 kB a ride here; held as a few arrays
per ride they must stay under 4 kB.

Around the entry sit the ride's route geometry and the flat index's
bookkeeping for finding a ride's rows.  As Python lists (route, offsets,
times) and one ``ride -> row`` dict per slab they averaged ≈ 4.5 kB a ride
here; as three read-only arrays and one int32 row-handle array per ride
they must stay under 2 kB.
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
MAX_MEAN_RIDE_STATE_BYTES = 2 * 1024
_GEOMETRY = ("_route", "_offsets_m", "_times_s")
#: A slab's row storage (views of the arena) and sorted views: the index
#: proper, measured by Fig. 3c, not bookkeeping.
_SLAB_ARRAYS = (
    "rids", "fdata", "idata", "rid_sorted", "rid_rows", "eta_sorted", "eta_rows",
)
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


def test_mean_geometry_and_row_bookkeeping_is_at_most_2_kb(bench_engine):
    """Per ride: the route geometry, plus everything the flat index holds
    except its row storage, sorted views and budget columns — that is, the
    maps from a ride to its rows."""
    rides = bench_engine.rides.values()
    assert len(rides) == N_RIDES
    geometry = sum(
        deep_size_bytes(getattr(ride, name)) for ride in rides for name in _GEOMETRY
    )
    flat = bench_engine.flat_index
    storage = {id(flat._arena), id(flat._budget)}
    for slab in flat._slabs:
        storage.update(id(getattr(slab, name)) for name in _SLAB_ARRAYS)
    bookkeeping = deep_size_bytes(flat, storage)
    mean = (geometry + bookkeeping) / N_RIDES
    assert mean <= MAX_MEAN_RIDE_STATE_BYTES, (
        f"{mean:.0f} B per ride: geometry {geometry / N_RIDES:.0f} B, "
        f"row bookkeeping {bookkeeping / N_RIDES:.0f} B"
    )
