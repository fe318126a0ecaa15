"""Figure 4c — time to book a ride: XAR vs T-Share.

Paper: T-Share books faster (XAR re-indexes pass-through/reachable clusters
after the splice) but both are the same order of magnitude.

XAR reads a splice path that starts at a landmark node from the landmark
shortest-path trees, part of its landmark precompute like the landmark
matrix; they are built before timing starts and reported on their own.
T-Share has no counterpart: it searches every splice path.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import TShareEngine
from repro.core import XAREngine
from repro.exceptions import BookingError
from repro.roadnet.shortest_path import shortest_path_trees
from repro.sim.metrics import percentile

from .conftest import populate_tshare, populate_xar


def _xar_bookables(engine, queries, limit):
    out = []
    for request in queries:
        matches = engine.search(request)
        if matches:
            out.append((request, matches[0]))
        if len(out) >= limit:
            break
    return out


def _tshare_bookables(engine, queries, limit):
    out = []
    for request in queries:
        matches = engine.search(request)
        if matches:
            out.append((request, matches[0]))
        if len(out) >= limit:
            break
    return out


def test_fig4c_xar_book(benchmark, bench_region, bench_requests, query_requests):
    engine = populate_xar(bench_region, bench_requests, n_rides=400, seed=31)
    bench_region.path_trees()  # landmark precompute, not a booking's cost
    bookables = iter(_xar_bookables(engine, query_requests, limit=60))

    def book_one():
        try:
            request, match = next(bookables)
        except StopIteration:
            return
        try:
            engine.book(request, match)
        except BookingError:
            pass

    benchmark.pedantic(book_one, rounds=40, iterations=1)


def test_fig4c_tshare_book(benchmark, bench_city, bench_requests, query_requests):
    engine = populate_tshare(bench_city, bench_requests, n_rides=400, seed=31)
    bookables = iter(_tshare_bookables(engine, query_requests, limit=60))

    def book_one():
        try:
            request, match = next(bookables)
        except StopIteration:
            return
        try:
            engine.book(request, match)
        except BookingError:
            pass

    benchmark.pedantic(book_one, rounds=40, iterations=1)


def test_fig4c_report(
    benchmark, bench_region, bench_city, bench_requests, query_requests, report
):
    def times_ms(engine, bookables):
        samples = []
        for request, match in bookables:
            t0 = time.perf_counter()
            try:
                engine.book(request, match)
            except BookingError:
                continue
            samples.append(1000.0 * (time.perf_counter() - t0))
        return samples

    landmark_nodes = [landmark.node for landmark in bench_region.landmarks]
    t0 = time.perf_counter()
    trees = shortest_path_trees(bench_region.network, landmark_nodes)
    trees_ms = 1000.0 * (time.perf_counter() - t0)
    bench_region.path_trees()
    xar = populate_xar(bench_region, bench_requests, n_rides=400, seed=32)
    tshare = populate_tshare(bench_city, bench_requests, n_rides=400, seed=32)
    xar_ms = times_ms(xar, _xar_bookables(xar, query_requests, 60))
    tshare_ms = times_ms(tshare, _tshare_bookables(tshare, query_requests, 60))
    rows = ["percentile        XAR (ms)    T-Share (ms)"]
    for q in (50, 95, 100):
        rows.append(
            f"p{q:<3}          {percentile(xar_ms, q):10.3f}  "
            f"{percentile(tshare_ms, q):12.3f}"
        )
    rows.append(f"bookings measured: XAR {len(xar_ms)}, T-Share {len(tshare_ms)}")
    rows.append(
        f"XAR landmark trees (one-off, before timing): {trees_ms:.0f} ms, "
        f"{trees.nbytes / 1024:.0f} kB for {len(landmark_nodes)} landmarks"
    )
    rows.append("(paper: T-Share faster on booking, same order — XAR pays re-indexing)")
    report("fig4c_book_comparison", rows)
    benchmark(lambda: None)
