"""The optimized search (Section VII): constraints, the no-shortest-path
invariant, and agreement with a brute-force oracle on the indexed state."""

import random

import pytest

import repro.core.search as search_module
from repro.core import XAREngine
from tests.shortest_path_guard import forbid_shortest_paths


@pytest.fixture
def populated(engine, city, rng):
    """Engine with 40 rides spread over the first hour."""
    nodes = list(city.nodes())
    for _i in range(40):
        a, b = rng.sample(nodes, 2)
        try:
            engine.create_ride(
                city.position(a), city.position(b), departure_s=rng.uniform(0, 1800)
            )
        except Exception:
            continue
    return engine


def random_request(engine, city, rng, window=(0.0, 3600.0)):
    nodes = list(city.nodes())
    a, b = rng.sample(nodes, 2)
    return engine.make_request(city.position(a), city.position(b), *window)


class TestConstraints:
    def test_matches_respect_walk_threshold(self, populated, city, rng):
        for _trial in range(30):
            request = random_request(populated, city, rng)
            for match in populated.search(request):
                assert match.total_walk_m <= request.walk_threshold_m + 1e-6

    def test_matches_respect_time_window_at_pickup(self, populated, city, rng):
        for _trial in range(30):
            request = random_request(populated, city, rng, window=(600.0, 1200.0))
            for match in populated.search(request):
                assert request.window_start_s <= match.eta_pickup_s <= request.window_end_s

    def test_pickup_before_dropoff(self, populated, city, rng):
        for _trial in range(30):
            request = random_request(populated, city, rng)
            for match in populated.search(request):
                assert match.eta_pickup_s < match.eta_dropoff_s

    def test_detour_estimate_within_ride_budget(self, populated, city, rng):
        for _trial in range(30):
            request = random_request(populated, city, rng)
            for match in populated.search(request):
                ride = populated.rides[match.ride_id]
                assert match.detour_estimate_m <= ride.detour_limit_m + 1e-6

    def test_results_sorted_by_total_walk(self, populated, city, rng):
        for _trial in range(20):
            request = random_request(populated, city, rng)
            matches = populated.search(request)
            walks = [m.total_walk_m for m in matches]
            assert walks == sorted(walks)

    def test_k_limits_results(self, populated, city, rng):
        request = random_request(populated, city, rng)
        full = populated.search(request)
        if len(full) < 2:
            pytest.skip("need multiple matches")
        top = populated.search(request, k=1)
        assert len(top) == 1
        assert top[0] == full[0]

    def test_no_seats_no_match(self, populated, city, rng):
        request = random_request(populated, city, rng)
        matches = populated.search(request)
        if not matches:
            pytest.skip("no match to exhaust")
        ride = populated.rides[matches[0].ride_id]
        ride.seats_available = 0
        after = populated.search(request)
        assert all(m.ride_id != ride.ride_id for m in after)


class TestNoShortestPathInvariant:
    def test_search_never_computes_shortest_paths(
        self, populated, city, rng, monkeypatch
    ):
        """The paper's defining property: O1 does no shortest-path work."""
        forbid_shortest_paths(monkeypatch)
        for _trial in range(20):
            request = random_request(populated, city, rng)
            populated.search(request)  # must not raise


class TestOracleAgreement:
    def test_search_matches_index_oracle(self, populated, city, rng):
        """Brute-force reconstruction of the two-step semantics over the raw
        index state must agree with the optimized search on the ride-id set."""
        region = populated.region
        for _trial in range(15):
            request = random_request(populated, city, rng)
            got = {m.ride_id for m in populated.search(request)}

            src_options = region.walkable_clusters(
                request.source, request.walk_threshold_m
            )
            dst_options = region.walkable_clusters(
                request.destination, request.walk_threshold_m
            )
            expected = set()
            for ride_id, ride in populated.rides.items():
                entry = populated.ride_entries[ride_id]
                if ride.seats_available < 1:
                    continue
                best_src = None
                for option in src_options:
                    eta = populated.cluster_index.eta(option.cluster_id, ride_id)
                    if eta is None:
                        continue
                    if not (request.window_start_s <= eta <= request.window_end_s):
                        continue
                    if best_src is None or option.walk_m < best_src[0]:
                        best_src = (option.walk_m, option, eta)
                if best_src is None:
                    continue
                best_dst = None
                for option in dst_options:
                    eta = populated.cluster_index.eta(option.cluster_id, ride_id)
                    if eta is None or eta < request.window_start_s:
                        continue
                    if best_dst is None or option.walk_m < best_dst[0]:
                        best_dst = (option.walk_m, option, eta)
                if best_dst is None:
                    continue
                walk_src, opt_src, eta_src = best_src
                walk_dst, opt_dst, eta_dst = best_dst
                if walk_src + walk_dst > request.walk_threshold_m:
                    continue
                if eta_src >= eta_dst:
                    continue
                if opt_src.cluster_id == opt_dst.cluster_id:
                    continue
                info_src = entry.reachable.get(opt_src.cluster_id)
                info_dst = entry.reachable.get(opt_dst.cluster_id)
                if info_src is None or info_dst is None:
                    continue
                sp = entry.segment_for(opt_src.cluster_id, earliest=True)
                sd = entry.segment_for(opt_dst.cluster_id, earliest=False)
                if sp is None or sd is None:
                    continue
                if sd < sp:
                    sd = entry.segment_for(
                        opt_dst.cluster_id, earliest=False, at_least=sp
                    )
                    if sd is None:
                        continue
                detour = search_module._splice_estimate(
                    region, entry, sp, sd, opt_src.landmark_id, opt_dst.landmark_id
                )
                if detour is None:
                    detour = (
                        info_src.detour_estimate_m + info_dst.detour_estimate_m
                    )
                if detour > ride.detour_limit_m:
                    continue
                expected.add(ride_id)
            assert got == expected


class TestEmptyResults:
    def test_unreachable_source_returns_empty(self, engine, city):
        from repro.geo import GeoPoint

        request = engine.make_request(
            GeoPoint(41.9, -74.0), city.position(10), 0.0, 600.0
        )
        assert engine.search(request) == []

    def test_no_rides_returns_empty(self, engine, city, rng):
        request = random_request(engine, city, rng)
        assert engine.search(request) == []
