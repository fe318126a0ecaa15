"""The walk-budget cut in the snap stage changes no answer and spares the
probes it claims to.

``flat_search_rides`` cuts each end's walkable-cluster list to the prefix
whose options pass the final walk check against the other end's nearest
option (``src.walk_m[i] + dst.walk_m[0] <= threshold``, destination side
symmetric).  The references are left unpruned: the kernel it replaced
(``tests/reference_search_kernel.py``) and the legacy per-object path
(``XAREngine(use_flat_index=False)``).  Every request is searched at
thresholds 0 and W, two seeded draws in between, and every exact boundary
of the cut and the float just below it, for k ∈ {None, 1, 10}, on one
engine and as a 2-engine ``peers`` pass against the merged per-engine
lists.

The count pin counts, per search, the window lookups
(``_ClusterSlab.window``) and the destination probes
(``FlatSearchIndex.slab``): each equals the summed length of its cut
prefix, so an uncut option list fails here on any machine.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core import XAREngine
from repro.exceptions import XARError
from repro.index.flat_index import FlatSearchIndex, _ClusterSlab
from repro.obs.trace import NULL_SPAN
from repro.service import merge_matches
from repro.workloads import NYCWorkloadGenerator, trips_to_requests
from tests.reference_search_kernel import ReferenceIndex, ref_flat_search_rides

from .test_search_kernel_reference import KS, SEEDS

#: Selected by ``pytest -m reference -k <seed>`` (CI's unpinned-seed run).
pytestmark = pytest.mark.reference

N_RIDES = 80
N_QUERIES = 25


class World:
    """The same rides in six engines: one flat and one legacy engine with
    every ride, and a flat and a legacy pair on the ride-id lanes of two
    shards (odd / even ids), the rides dealt alternately."""

    def __init__(self, region, city, seed, n_rides=N_RIDES, n_queries=N_QUERIES):
        requests = trips_to_requests(
            NYCWorkloadGenerator(city, seed=seed).generate(
                3 * n_rides, start_hour=7.0, end_hour=7.5
            )
        )
        self.region = region
        self.flat = XAREngine(region)
        self.legacy = XAREngine(region, use_flat_index=False)
        self.lanes = [
            XAREngine(region, ride_id_start=start, ride_id_step=2)
            for start in (1, 2)
        ]
        self.legacy_lanes = [
            XAREngine(region, ride_id_start=start, ride_id_step=2,
                      use_flat_index=False)
            for start in (1, 2)
        ]
        supply = iter(requests)
        created = 0
        while created < n_rides:
            request = next(supply)
            lane = created % 2
            engines = (self.flat, self.legacy, self.lanes[lane],
                       self.legacy_lanes[lane])
            outcomes = []
            for engine in engines:
                try:
                    engine.create_ride(
                        request.source, request.destination,
                        request.window_start_s,
                    )
                    outcomes.append(True)
                except XARError:
                    outcomes.append(False)
            assert len(set(outcomes)) == 1, "the engines disagree on a create"
            created += outcomes[0]
        self.queries = list(supply)[:n_queries]
        assert len(self.queries) == n_queries
        self.ref = ReferenceIndex(self.flat.flat_index)
        self.lane_refs = [ReferenceIndex(e.flat_index) for e in self.lanes]

    def full_walks(self, request):
        """The full walkable lists' walks of both ends (Python floats)."""
        return (
            self.region.walkable_columns(request.source).walk_m.tolist(),
            self.region.walkable_columns(request.destination).walk_m.tolist(),
        )


def thresholds(world, request, rng):
    """0, W, two draws in (0, W), and every boundary of the cut over the
    full lists (with the float just below it): ``(threshold, boundary?)``."""
    limit = world.region.config.max_walk_m
    src, dst = world.full_walks(request)
    boundaries = set()
    if src and dst:
        boundaries.update(float(s + dst[0]) for s in src)
        boundaries.update(float(src[0] + d) for d in dst)
    plain = {0.0, limit, rng.uniform(0.0, limit), rng.uniform(0.0, limit)}
    below = {math.nextafter(b, -math.inf) for b in boundaries}
    out = [(t, True) for t in sorted(boundaries)]
    out += [(t, False) for t in sorted((plain | below) - boundaries) if t >= 0.0]
    return out


def cut_lengths(world, request):
    """What the cut keeps, computed from the full lists: ``(n_src, n_dst)``."""
    src, dst = world.full_walks(request)
    threshold = request.walk_threshold_m
    if not (src and dst):
        return 0, 0
    return (
        sum(1 for s in src if s + dst[0] <= threshold),
        sum(1 for d in dst if src[0] + d <= threshold),
    )


def assert_exact(world, request):
    """Every k: the flat engine equals the reference kernel and the legacy
    engine, and the 2-engine pass equals the merged per-engine lists of
    both references.  Returns (comparisons, whether the k=None answer was
    non-empty)."""
    first, second = world.lanes
    nonempty = False
    for k in KS:
        got = world.flat.search(request, k)
        assert got == ref_flat_search_rides(
            world.flat, world.ref, request, k, NULL_SPAN
        ), f"k={k}: flat != reference kernel"
        assert got == world.legacy.search(request, k), f"k={k}: flat != legacy"

        fused = first.search(request, k, peers=[second])
        assert fused == merge_matches([
            ref_flat_search_rides(engine, ref, request, k, NULL_SPAN)
            for engine, ref in zip(world.lanes, world.lane_refs)
        ], k), f"k={k}: peers pass != merged reference kernels"
        assert fused == merge_matches(
            [engine.search(request, k) for engine in world.legacy_lanes], k
        ), f"k={k}: peers pass != merged legacy engines"
        nonempty |= k is None and bool(got)
    return 4 * len(KS), nonempty


@pytest.mark.parametrize("seed", SEEDS)
def test_cut_changes_no_answer_at_any_threshold(region, city, seed):
    world = World(region, city, seed)
    rng = random.Random(seed)
    compared = at_boundary = matched_at_boundary = cut_bites = 0
    for query in world.queries:
        for threshold, boundary in thresholds(world, query, rng):
            request = dataclasses.replace(query, walk_threshold_m=threshold)
            n, nonempty = assert_exact(world, request)
            compared += n
            if boundary:
                at_boundary += n
                matched_at_boundary += nonempty
            n_src, n_dst = cut_lengths(world, request)
            uncut = [
                len(region.walkable_columns(point, threshold).options)
                for point in (request.source, request.destination)
            ]
            cut_bites += n_src < uncut[0] or n_dst < uncut[1]
    assert at_boundary >= compared // 3, "too few boundary thresholds"
    assert matched_at_boundary, "no boundary threshold found a match"
    assert cut_bites, "the cut never dropped an option"


# ----------------------------------------------------------------------
# Count pin
# ----------------------------------------------------------------------
PIN_SEED = 2024


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``_ClusterSlab.window`` and ``FlatSearchIndex.slab`` calls."""
    counts = {"window": 0, "slab": 0}
    window, slab = _ClusterSlab.window, FlatSearchIndex.slab

    def counted_window(self, *args):
        counts["window"] += 1
        return window(self, *args)

    def counted_slab(self, *args):
        counts["slab"] += 1
        return slab(self, *args)

    monkeypatch.setattr(_ClusterSlab, "window", counted_window)
    monkeypatch.setattr(FlatSearchIndex, "slab", counted_slab)
    return counts


def test_probes_equal_the_cut_prefixes(region, city, counted):
    """Per search, one window lookup per kept source option and engine, and
    one destination probe per kept destination option and engine whose
    step 1 found a row; on one engine and on a 2-engine pass."""
    world = World(region, city, PIN_SEED, n_rides=200, n_queries=100)
    passes = {
        "one": (world.flat, []),
        "pass": (world.lanes[0], world.lanes[1:]),
    }
    expected = {name: {"window": 0, "slab": 0} for name in passes}
    uncut = 0
    for query in world.queries:
        n_src, n_dst = cut_lengths(world, query)
        if not n_src:
            continue
        options = region.walkable_columns(query.source).options[:n_src]
        uncut += len(
            region.walkable_columns(query.source, query.walk_threshold_m).options
        )
        for name, (engine, peers) in passes.items():
            expected[name]["window"] += n_src * (1 + len(peers))
            expected[name]["slab"] += n_dst * sum(
                any(
                    len(member.flat_index.window(
                        option.cluster_id, query.window_start_s,
                        query.window_end_s,
                    )[0])
                    for option in options
                )
                for member in (engine, *peers)
            )
    for name, (engine, peers) in passes.items():
        seen = []
        for _repeat in range(2):
            counted.update(window=0, slab=0)
            for query in world.queries:
                engine.search(query, 10, peers=peers)
            seen.append(dict(counted))
        assert seen[0] == seen[1], "the counts must repeat exactly"
        assert seen[0] == expected[name], name
    assert expected["one"]["window"] < uncut, "the cut dropped no option"
