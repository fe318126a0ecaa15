"""Tracking (Section VIII-A): obsolete clusters, completion, monotonic time."""

import pytest

from repro.core import RideStatus
from repro.exceptions import UnknownRideError


@pytest.fixture
def long_ride(engine, city):
    return engine.create_ride(
        city.position(0), city.position(city.node_count - 1), departure_s=1000.0
    )


class TestObsolescence:
    def test_before_departure_nothing_changes(self, engine, long_ride):
        before = dict(engine.index_stats())
        engine.track(long_ride.ride_id, 500.0)
        assert engine.index_stats() == before

    def test_crossed_pass_through_removed(self, engine, long_ride):
        entry = engine.ride_entries[long_ride.ride_id]
        visits = list(entry.pass_through)
        assert len(visits) >= 2, "route should cross several clusters"
        midpoint_time = (visits[0].eta_s + visits[-1].eta_s) / 2.0
        crossed = {v.cluster_id for v in visits if v.eta_s <= midpoint_time}
        engine.track(long_ride.ride_id, midpoint_time)
        # Tracking replaces the entry; the one read before is untouched.
        remaining = engine.ride_entries[long_ride.ride_id].pass_through_ids()
        assert remaining.isdisjoint(crossed)
        assert crossed <= entry.pass_through_ids()

    def test_unsupported_reachable_leaves_potential_lists(self, engine, long_ride):
        entry = engine.ride_entries[long_ride.ride_id]
        visits = list(entry.pass_through)
        midpoint_time = (visits[0].eta_s + visits[-1].eta_s) / 2.0
        engine.track(long_ride.ride_id, midpoint_time)
        entry = engine.ride_entries[long_ride.ride_id]
        # Every cluster whose entry survived must still be reachable; every
        # cluster the ride left must be gone from the cluster index.
        for cluster_id in range(engine.region.n_clusters):
            eta = engine.cluster_index.eta(cluster_id, long_ride.ride_id)
            if cluster_id in entry.reachable:
                assert eta is not None
            else:
                assert eta is None

    def test_supported_reachable_survives(self, engine, long_ride):
        entry = engine.ride_entries[long_ride.ride_id]
        visits = list(entry.pass_through)
        just_after_first = visits[0].eta_s + 1e-3
        engine.track(long_ride.ride_id, just_after_first)
        entry = engine.ride_entries[long_ride.ride_id]
        # Later pass-through clusters are still valid.
        later = {v.cluster_id for v in visits[1:]}
        assert later <= entry.reachable_ids() | {visits[0].cluster_id}

    def test_ride_becomes_active(self, engine, long_ride):
        engine.track(long_ride.ride_id, long_ride.departure_s + 60.0)
        assert long_ride.status is RideStatus.ACTIVE
        assert long_ride.progressed_m > 0


class TestCompletion:
    def test_completed_ride_fully_removed(self, engine, long_ride):
        engine.track(long_ride.ride_id, long_ride.arrival_s + 1.0)
        assert long_ride.status is RideStatus.COMPLETED
        assert long_ride.ride_id not in engine.rides
        assert long_ride.ride_id not in engine.ride_entries
        assert long_ride.ride_id in engine.completed_rides
        for cluster_id in range(engine.region.n_clusters):
            assert engine.cluster_index.eta(cluster_id, long_ride.ride_id) is None

    def test_completion_purges_stray_cluster_rows(self, engine, city):
        """A row the entry does not name (a stray left by corruption) goes
        with the ride, as it does on retirement, cancel and reindex."""
        from repro.resilience import InvariantAuditor

        ride = engine.create_ride(
            city.position(0), city.position(80), departure_s=0.0,
            detour_limit_m=300.0,
        )
        ride_id = ride.ride_id
        entry = engine.ride_entries[ride_id]
        stray = next(
            c for c in range(engine.region.n_clusters) if c not in entry.reachable
        )
        engine.cluster_index.add(stray, ride_id, 1.0)
        engine.track(ride_id, ride.arrival_s + 1.0)
        assert ride.status is RideStatus.COMPLETED
        assert engine.cluster_index.eta(stray, ride_id) is None
        report = InvariantAuditor(engine).audit()
        assert report.by_kind().get("ghost-index-entry", 0) == 0, report.describe()

    def test_track_all_counts_completions(self, engine, city):
        for start in (0.0, 100.0, 200.0):
            engine.create_ride(city.position(0), city.position(80), departure_s=start)
        completed = engine.track_all(10_000_000.0)
        assert completed == 3
        assert engine.n_active_rides == 0


class TestTimeDiscipline:
    def test_backwards_tracking_rejected(self, engine, long_ride):
        mid = long_ride.departure_s + 0.5 * long_ride.duration_s
        engine.track(long_ride.ride_id, mid)
        with pytest.raises(ValueError):
            engine.track(long_ride.ride_id, mid - 10.0)

    def test_same_time_tracking_is_idempotent(self, engine, long_ride):
        entry = engine.ride_entries[long_ride.ride_id]
        visits = list(entry.pass_through)
        t = (visits[0].eta_s + visits[-1].eta_s) / 2.0
        engine.track(long_ride.ride_id, t)
        entry = engine.ride_entries[long_ride.ride_id]
        snapshot = (list(entry.pass_through), set(entry.reachable))
        engine.track(long_ride.ride_id, t)
        assert engine.ride_entries[long_ride.ride_id] is entry  # nothing due
        assert (list(entry.pass_through), set(entry.reachable)) == snapshot

    def test_unknown_ride_rejected(self, engine):
        with pytest.raises(UnknownRideError):
            engine.track(12345, 0.0)


class TestSearchAfterTracking:
    def test_passed_clusters_stop_matching(self, engine, city, long_ride):
        """A request at the start of the route must not match once the ride
        has moved past — the paper's O3 correctness requirement."""
        origin = city.position(long_ride.route[0])
        dest = city.position(long_ride.route[-1])
        request = engine.make_request(origin, dest, 0.0, 1e9)
        before = [m for m in engine.search(request) if m.ride_id == long_ride.ride_id]
        if not before:
            pytest.skip("request does not match the ride even before tracking")
        # Move the ride most of the way along its route.
        late = long_ride.departure_s + 0.95 * long_ride.duration_s
        engine.track(long_ride.ride_id, late)
        after = [m for m in engine.search(request) if m.ride_id == long_ride.ride_id]
        assert not after
