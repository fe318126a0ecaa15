"""Ablation — the reachable-cluster detour pruning test (Section VI).

XAR prunes candidate reachable clusters with
``d(C, C') + d(C', via) - d(C, via) <= d``.  Without the pruning (keeping
every cluster within distance d of a pass-through cluster), the index holds
more entries and search returns candidate rides whose cluster-level detour
already exceeds the budget — inflating invalid matches.
"""

from __future__ import annotations

import pytest

import repro.core.reachability as reach_module
from repro.core import XAREngine
from tests.entry_faults import corrupt_entry
from tests.reference_write_path import RefReachableInfo

from .conftest import populate_xar


def _entries_with_patch(monkeypatch_like, region, requests, prune: bool):
    """Total index entries when the detour test is on/off."""
    original = reach_module.build_ride_entry

    if prune:
        build = original
    else:

        def build(region_arg, ride):
            entries = {ride.ride_id: original(region_arg, ride)}
            # Un-pruned variant: add every cluster within the detour limit of
            # any pass-through cluster, regardless of the detour test.
            drive = region_arg.config.drive_seconds
            with corrupt_entry(entries, ride.ride_id) as entry:
                for visit in entry.pass_through:
                    for candidate, dist in region_arg.clusters_within(
                        visit.cluster_id, ride.detour_limit_m
                    ):
                        info = entry.reachable.get(candidate)
                        if info is None:
                            info = RefReachableInfo(cluster_id=candidate)
                            entry.reachable[candidate] = info
                        info.merge(
                            support=visit.cluster_id,
                            eta_s=visit.eta_s + drive(dist),
                            detour_m=max(info.detour_estimate_m, 0.0)
                            if info.detour_estimate_m != float("inf")
                            else dist,
                        )
            return entries[ride.ride_id]

    reach_module_build = reach_module.build_ride_entry
    import repro.core.engine as engine_module

    engine_module_build = engine_module.build_ride_entry
    reach_module.build_ride_entry = build
    engine_module.build_ride_entry = build
    try:
        engine = populate_xar(region, requests, n_rides=200)
        return engine.index_stats()
    finally:
        reach_module.build_ride_entry = reach_module_build
        engine_module.build_ride_entry = engine_module_build


def test_ablation_reachability_pruning(benchmark, bench_region, bench_requests, report):
    pruned = _entries_with_patch(None, bench_region, bench_requests, prune=True)
    unpruned = _entries_with_patch(None, bench_region, bench_requests, prune=False)
    rows = [
        "variant       cluster entries   reachable total",
        f"pruned        {pruned['cluster_entries']:15d}   {pruned['reachable_total']:15d}",
        f"unpruned      {unpruned['cluster_entries']:15d}   {unpruned['reachable_total']:15d}",
        f"entry inflation without the detour test: "
        f"{unpruned['cluster_entries'] / max(pruned['cluster_entries'], 1):.2f}x",
    ]
    report("ablation_reachability", rows)
    assert unpruned["cluster_entries"] >= pruned["cluster_entries"]
    benchmark(lambda: None)
