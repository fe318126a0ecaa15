"""A timing-free guard on what a second thread shard costs a search.

A thread fan-out search is one kernel pass over every consulted shard's
engine, in one turn: the request side, the feasibility filter, the top-k
cut, the build and the worker/tracer bookkeeping run once, and only the
per-index probes (window lookups, R1 scan, destination probe, one gather)
run per shard.  As in ``test_search_call_budget.py``, the cost on arrays of
tens of rows is the number of calls, so this counts ``c_call`` profile
events per router search over a pinned scenario: a 2-shard ``fanout="all"``
router must stay within 1.5x of a 1-shard router holding the same rides.
Searching each shard separately and merging read 1.8x; a second shard that
repeats the feasibility pass, the ranking or the bookkeeping fails here on
any machine.
"""

from __future__ import annotations

import gc

import pytest

from repro.exceptions import XARError
from repro.service import ShardRouter
from repro.workloads import NYCWorkloadGenerator, trips_to_requests

from .test_search_call_budget import count_c_calls

N_RIDES = 400
N_QUERIES = 100
TOP_K = 10
BUDGET = 1.5


@pytest.fixture(scope="module")
def streams(city):
    requests = trips_to_requests(
        NYCWorkloadGenerator(city, seed=2024).generate(
            3 * N_RIDES, start_hour=7.0, end_hour=7.5
        )
    )
    return requests


def _calls_per_search(region, streams, n_shards):
    with ShardRouter(region, n_shards, fanout="all", seed=3) as service:
        supply = iter(streams)
        created = 0
        while created < N_RIDES:
            request = next(supply)
            try:
                service.create(
                    request.source, request.destination,
                    request.window_start_s,
                )
            except XARError:
                continue
            created += 1
        queries = list(supply)[:N_QUERIES]
        assert len(queries) == N_QUERIES

        def run():
            return [service.search(query, TOP_K) for query in queries]

        # Warm: sorted views built, walkable lists memoised, metric
        # children bound.
        answers = run()
        assert sum(1 for matches in answers if matches) >= N_QUERIES // 2
        # A collection inside the count would run finalizers that are no
        # part of a search.
        gc.collect()
        gc.disable()
        try:
            calls = count_c_calls(run)
            assert count_c_calls(run) == calls, "the count must repeat exactly"
        finally:
            gc.enable()
        return calls / N_QUERIES, answers


def test_second_shard_costs_its_probes_not_a_second_search(region, streams):
    one, answers_one = _calls_per_search(region, streams, 1)
    two, answers_two = _calls_per_search(region, streams, 2)
    # Same rides (on other ride-id lanes), as many answers: the counts are
    # for the same work.
    assert list(map(len, answers_two)) == list(map(len, answers_one))
    assert two <= BUDGET * one, (
        f"{two:.1f} C calls per search on 2 shards against {one:.1f} on 1 "
        f"({two / one:.2f}x; budget {BUDGET}x)"
    )
