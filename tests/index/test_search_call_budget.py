"""A timing-free guard on the read path's call count.

The flat kernel works on arrays of tens to hundreds of elements, where a
numpy call costs about the same whatever it does — so the number of calls
*is* the cost, and it is a property of the code, not of the host.  This test
counts ``c_call`` profile events (builtin functions and methods: numpy
functions and array methods, ``dict.get``, ``list.append``, ``tolist`` ...)
per search over a pinned scenario, for the production kernel and for the
kernel it replaced (``tests/reference_search_kernel.py``).  The counts
repeat exactly, and the production kernel must stay at or under 0.6 of the
reference — reintroducing per-option gathers, per-option ETA carrying or a
four-``searchsorted`` window fails here on any machine.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import XAREngine
from repro.exceptions import XARError
from repro.index.flat_index import flat_search_rides
from repro.obs.trace import NULL_SPAN
from repro.workloads import NYCWorkloadGenerator, trips_to_requests
from tests.reference_search_kernel import ReferenceIndex, ref_flat_search_rides

N_RIDES = 200
N_QUERIES = 100
TOP_K = 10
BUDGET = 0.6


def count_c_calls(fn) -> int:
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def scenario(region, city):
    requests = trips_to_requests(
        NYCWorkloadGenerator(city, seed=2024).generate(
            3 * N_RIDES, start_hour=7.0, end_hour=7.5
        )
    )
    engine = XAREngine(region)
    supply = iter(requests)
    while len(engine.rides) < N_RIDES:
        request = next(supply)
        try:
            engine.create_ride(
                request.source, request.destination, request.window_start_s
            )
        except XARError:
            continue
    queries = list(supply)[:N_QUERIES]
    assert len(queries) == N_QUERIES
    return engine, ReferenceIndex(engine.flat_index), queries


def test_new_kernel_stays_within_its_call_budget(scenario):
    engine, ref, queries = scenario

    def run_new():
        return [flat_search_rides([engine], q, TOP_K, NULL_SPAN) for q in queries]

    def run_reference():
        return [ref_flat_search_rides(engine, ref, q, TOP_K, NULL_SPAN) for q in queries]

    # Warm: sorted views built, walkable lists memoised — and the answers
    # agree, so the two counts are for the same work.
    answers = run_new()
    assert answers == run_reference()
    assert sum(1 for matches in answers if matches) >= N_QUERIES // 2

    new = count_c_calls(run_new)
    reference = count_c_calls(run_reference)
    assert count_c_calls(run_new) == new, "the count must repeat exactly"
    assert count_c_calls(run_reference) == reference
    assert new <= BUDGET * reference, (
        f"{new / N_QUERIES:.1f} C calls per search against "
        f"{reference / N_QUERIES:.1f} for the reference kernel "
        f"({new / reference:.2f}x; budget {BUDGET}x)"
    )
