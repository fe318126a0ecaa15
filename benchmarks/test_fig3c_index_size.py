"""Figure 3c — size of the in-memory index as the cluster count changes.

Paper: at C = 500 the index is tiny; at C = 5000 it reaches ~16 GB (120k ride
offers, 350k requests).  The effect to reproduce: the index footprint grows
with C because every ride touches more (pass-through + reachable) clusters
and the per-grid walkable lists lengthen.  Our scale is ~100x smaller; the
*growth*, not the absolute bytes, is the result.

The index measured is what search reads: the flat index (its row arena at
capacity, the per-cluster slabs with their sorted views, the budget
columns) plus the rides' index entries.  The potential-ride dicts that
still mirror it (``engine.cluster_index``) are printed beside it.
"""

from __future__ import annotations

import pytest

from repro.config import XARConfig
from repro.discretization import build_region
from repro.index import deep_size_bytes
from repro.index.memory import megabytes

from .conftest import populate_xar

DELTAS_M = [800.0, 400.0, 200.0, 100.0]  # decreasing delta -> more clusters
N_RIDES = 250


def _index_size_mb(engine) -> float:
    flat = engine.flat_index
    arena = flat._arena
    # The arena's buffers are mmaps, which the deep size does not follow
    # from the (non-owning) arrays; the slabs, budget columns and
    # ride -> clusters map are ordinary objects and arrays.
    total = arena.rids.nbytes + arena.F.nbytes + arena.I.nbytes
    total += deep_size_bytes(flat)
    total += deep_size_bytes(engine.ride_entries)
    return megabytes(total)


def test_fig3c_index_size_vs_clusters(benchmark, bench_city, bench_requests, report):
    rows = []
    sizes = []
    clusters = []
    for delta in DELTAS_M:
        config = XARConfig.validated(delta_m=delta)
        region = build_region(bench_city, config)
        engine = populate_xar(region, bench_requests, n_rides=N_RIDES)
        size_mb = _index_size_mb(engine)
        sizes.append(size_mb)
        clusters.append(region.n_clusters)
        rows.append(
            f"delta {delta:6.0f} m   C = {region.n_clusters:4d}   "
            f"index = {size_mb:8.2f} MB   "
            f"rows = {engine.flat_index.total_rows():6d}   "
            f"mirror = {megabytes(deep_size_bytes(engine.cluster_index)):6.2f} MB"
        )
    report(
        "fig3c_index_size",
        [f"{N_RIDES} ride offers indexed", *rows,
         "(index grows with C — same trend as the paper's 16 GB at C=5000)"],
    )
    assert clusters == sorted(clusters)
    # More clusters => strictly larger index at the extremes.
    assert sizes[-1] > sizes[0]
    # Timing column: measuring one deep-size pass.
    config = XARConfig.validated(delta_m=DELTAS_M[0])
    region = build_region(bench_city, config)
    engine = populate_xar(region, bench_requests, n_rides=50)
    benchmark(_index_size_mb, engine)
