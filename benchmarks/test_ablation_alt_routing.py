"""Ablation — ALT routing for the create/book back-ends (beyond the paper).

Create and book are the only shortest-path consumers; ALT's landmark lower
bounds settle far fewer nodes per query than plain Dijkstra/A*.  This bench
asserts exactly that on the same query pairs — Dijkstra's settled set is
every node no farther than the target (``dijkstra_all`` with the path
length as cutoff) — reports the wall-clock of each back-end and of
create-ride beside it, and verifies the routes stay identical (ALT is
exact).  Wall-clock is reported, not asserted: the frozen-adjacency
Dijkstra settles more nodes yet answers faster than ALT's dict-based A*.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import XAREngine
from repro.roadnet import ALTRouter


@pytest.fixture(scope="module")
def alt_router(bench_city):
    return ALTRouter(bench_city, n_landmarks=8)


def _create_batch(region, requests, router):
    engine = XAREngine(region, router=router)
    t0 = time.perf_counter()
    for request in requests:
        try:
            engine.create_ride(request.source, request.destination, request.window_start_s)
        except Exception:
            continue
    return time.perf_counter() - t0, engine


def test_ablation_alt_routing(
    benchmark, bench_region, bench_city, bench_requests, alt_router, report
):
    from repro.roadnet import astar, dijkstra_all, dijkstra_path

    rng = random.Random(61)
    nodes = list(bench_city.nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _n in range(120)]

    def timed(fn):
        t0 = time.perf_counter()
        total = 0.0
        for a, b in pairs:
            d, _path = fn(a, b)
            total += d
        return time.perf_counter() - t0, total

    dijkstra_s, dij_total = timed(lambda a, b: dijkstra_path(bench_city, a, b))
    astar_s, astar_total = timed(lambda a, b: astar(bench_city, a, b))
    alt_s, alt_total = timed(alt_router.shortest_path)
    # Exactness across all three.
    assert alt_total == pytest.approx(dij_total)
    assert astar_total == pytest.approx(dij_total)

    # Pruning power: mean settled nodes per query, same pairs.
    alt_settled = sum(alt_router.settled_count(a, b) for a, b in pairs) / len(pairs)
    dijkstra_settled = sum(
        len(dijkstra_all(bench_city, a, cutoff=dijkstra_path(bench_city, a, b)[0]))
        for a, b in pairs
    ) / len(pairs)

    # End-to-end create cost with each back-end (indexing dominates, so the
    # absolute create numbers contextualise the routing share honestly).
    batch = rng.sample(list(bench_requests), 150)
    create_plain_s, engine_plain = _create_batch(bench_region, batch, router=None)
    create_alt_s, engine_alt = _create_batch(bench_region, batch, router=alt_router)
    for ride_id in engine_plain.rides:
        assert engine_alt.rides[ride_id].length_m == pytest.approx(
            engine_plain.rides[ride_id].length_m
        )

    report(
        "ablation_alt_routing",
        [
            f"120 point-to-point queries ({bench_city.node_count}-node city):",
            f"  Dijkstra             : {1000*dijkstra_s:7.1f} ms",
            f"  A* (haversine bound) : {1000*astar_s:7.1f} ms",
            f"  ALT ({len(alt_router.landmarks)} landmarks)    : {1000*alt_s:7.1f} ms"
            f"   ({dijkstra_s/max(alt_s,1e-9):.1f}x vs Dijkstra)",
            f"  mean nodes settled: Dijkstra {dijkstra_settled:.0f}, "
            f"ALT {alt_settled:.0f} of {bench_city.node_count}",
            "",
            f"create 150 rides, plain : {1000*create_plain_s:.1f} ms",
            f"create 150 rides, ALT   : {1000*create_alt_s:.1f} ms",
            "(create is dominated by reachable-cluster indexing, not routing;",
            " ALT pays off as the city grows — all back-ends are exact)",
        ],
    )
    assert alt_settled < dijkstra_settled
    benchmark(lambda: alt_router.shortest_path(*pairs[0]))
