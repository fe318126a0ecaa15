"""Booking (Section VIII-B): splices, budgets, invariants, rollbacks."""

import random

import pytest

from repro.exceptions import BookingError
from repro.core import XAREngine
from tests.entry_faults import corrupt_entry


@pytest.fixture
def populated(engine, city, rng):
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


def first_booking(engine, city, rng, trials=60):
    nodes = list(city.nodes())
    for _trial in range(trials):
        a, b = rng.sample(nodes, 2)
        request = engine.make_request(city.position(a), city.position(b), 0.0, 3600.0)
        matches = engine.search(request)
        for match in matches:
            try:
                return request, match, engine.book(request, match)
            except BookingError:
                continue
    pytest.skip("could not produce a booking in this configuration")


class TestBookingEffects:
    def test_seat_consumed(self, populated, city, rng):
        _req, match, _rec = first_booking(populated, city, rng)
        ride = populated.rides[match.ride_id]
        assert ride.seats_available == ride.seats_total - 1

    def test_detour_budget_charged_with_actual(self, populated, city, rng):
        # Fresh ride budgets are the default; after booking, remaining budget
        # equals default - actual detour (clamped at 0).
        default = populated.region.config.default_detour_m
        _req, match, record = first_booking(populated, city, rng)
        ride = populated.rides[match.ride_id]
        assert ride.detour_limit_m == pytest.approx(
            max(0.0, default - record.detour_actual_m)
        )

    def test_route_passes_through_pickup_and_dropoff(self, populated, city, rng):
        _req, match, _rec = first_booking(populated, city, rng)
        ride = populated.rides[match.ride_id]
        region = populated.region
        pickup_node = region.landmarks[match.pickup_landmark].node
        dropoff_node = region.landmarks[match.dropoff_landmark].node
        route = ride.route
        assert pickup_node in route and dropoff_node in route
        assert route.index(pickup_node) <= route.index(dropoff_node) or (
            route.count(pickup_node) > 1 or route.count(dropoff_node) > 1
        )

    def test_via_points_added_in_order(self, populated, city, rng):
        req, match, _rec = first_booking(populated, city, rng)
        ride = populated.rides[match.ride_id]
        labels = [v.label for v in ride.via_points]
        assert labels[0] == "source" and labels[-1] == "destination"
        assert "pickup" in labels and "dropoff" in labels
        assert labels.index("pickup") < labels.index("dropoff")
        indices = [v.route_index for v in ride.via_points]
        assert indices == sorted(indices)

    def test_at_most_four_shortest_paths(self, populated, city, rng):
        _req, _match, record = first_booking(populated, city, rng)
        assert 1 <= record.shortest_paths_computed <= 4

    def test_actual_detour_nonnegative(self, populated, city, rng):
        _req, _match, record = first_booking(populated, city, rng)
        assert record.detour_actual_m >= 0.0

    def test_approximation_error_within_4_epsilon(self, populated, city, rng):
        """The Theorem 6 consequence the paper evaluates in Fig. 3a."""
        epsilon = populated.region.config.epsilon_m
        _req, _match, record = first_booking(populated, city, rng)
        assert record.approximation_error_m <= 4.0 * epsilon + 1e-6

    def test_booking_recorded(self, populated, city, rng):
        before = populated.n_bookings
        first_booking(populated, city, rng)
        assert populated.n_bookings == before + 1

    def test_ride_reindexed_after_booking(self, populated, city, rng):
        _req, match, _rec = first_booking(populated, city, rng)
        entry = populated.ride_entries[match.ride_id]
        ride = populated.rides[match.ride_id]
        # Segment metadata must match the post-splice segment structure.
        assert len(entry.segments) == ride.n_segments

    def test_cluster_etas_match_recomputed_schedule_after_booking(
        self, populated, city, rng
    ):
        """Regression: reindex must *replace* stored ETAs, not earliest-merge.

        A booking splice shifts the ride's schedule later; with the old
        ``add``-based reindex any cluster whose recomputed ETA moved later
        silently kept the stale pre-booking arrival time.
        """
        _req, match, _rec = first_booking(populated, city, rng)
        engine = populated
        entry = engine.ride_entries[match.ride_id]
        for cluster_id, info in entry.reachable.items():
            stored = engine.cluster_index.eta(cluster_id, match.ride_id)
            assert stored == info.eta_s, (
                f"cluster {cluster_id}: stored ETA {stored} != recomputed "
                f"{info.eta_s} after booking"
            )

    def test_reindex_replaces_stale_earlier_eta(self, populated, city, rng):
        """Directly pin the update-vs-add semantics through reindex_ride."""
        engine = populated
        ride_id = next(iter(engine.rides))
        entry = engine.ride_entries[ride_id]
        cluster_id = next(iter(entry.reachable))
        true_eta = entry.reachable[cluster_id].eta_s
        # Corrupt the stored ETA to something much earlier; a reindex must
        # restore the recomputed value even though it is *later*.
        engine.cluster_index.remove(cluster_id, ride_id)
        engine.cluster_index.add(cluster_id, ride_id, true_eta - 9999.0)
        engine.reindex_ride(ride_id)
        assert engine.cluster_index.eta(cluster_id, ride_id) == \
            engine.ride_entries[ride_id].reachable[cluster_id].eta_s

    def test_reindex_purges_stray_ghost_rows(self, populated, city, rng):
        """A cluster row the entry does not name (a ghost) must not survive
        reindexing — otherwise the auditor's reindex-based heal never
        converges."""
        engine = populated
        ghost_cluster = None
        for ride_id, entry in engine.ride_entries.items():
            for c in range(engine.region.n_clusters):
                if c not in entry.reachable:
                    ghost_cluster = c
                    break
            if ghost_cluster is not None:
                break
        if ghost_cluster is None:
            pytest.skip("every ride reaches every cluster in this region")
        engine.cluster_index.add(ghost_cluster, ride_id, 1.0)
        engine.reindex_ride(ride_id)
        fresh = engine.ride_entries[ride_id]
        if ghost_cluster not in fresh.reachable:
            assert engine.cluster_index.eta(ghost_cluster, ride_id) is None


class TestBookingFailures:
    def test_no_seats_rejected(self, populated, city, rng):
        req, match, _rec = first_booking(populated, city, rng)
        ride = populated.rides[match.ride_id]
        ride.seats_available = 0
        with pytest.raises(BookingError):
            populated.book(req, match)

    def test_unknown_ride_rejected(self, populated, city, rng):
        req, match, _rec = first_booking(populated, city, rng)
        populated.remove_ride(match.ride_id)
        with pytest.raises(BookingError):
            populated.book(req, match)

    def test_same_node_pickup_dropoff_rejected(self, populated, city, rng):
        req, match, _rec = first_booking(populated, city, rng)
        bad = type(match)(
            **{**match.__dict__, "dropoff_landmark": match.pickup_landmark}
        )
        with pytest.raises(BookingError):
            populated.book(req, bad)

    def test_stale_cluster_match_rejected_cleanly(self, populated, city, rng):
        req, match, _rec = first_booking(populated, city, rng)
        with corrupt_entry(populated.ride_entries, match.ride_id) as entry:
            entry.reachable.pop(match.pickup_cluster, None)
        with pytest.raises(BookingError):
            populated.book(req, match)


class TestSequentialBookings:
    def test_multiple_bookings_on_one_ride(self, engine, city):
        """Book two different requests onto the same long ride."""
        ride = engine.create_ride(
            city.position(0),
            city.position(city.node_count - 1),
            departure_s=0.0,
            detour_limit_m=6000.0,
            seats=3,
        )
        rng = random.Random(11)
        nodes = list(city.nodes())
        booked = 0
        for _trial in range(80):
            a, b = rng.sample(nodes, 2)
            request = engine.make_request(city.position(a), city.position(b), 0.0, 3600.0)
            matches = [m for m in engine.search(request) if m.ride_id == ride.ride_id]
            for match in matches:
                try:
                    engine.book(request, match)
                    booked += 1
                    break
                except BookingError:
                    continue
            if booked >= 2:
                break
        if booked < 2:
            pytest.skip("configuration did not admit two bookings")
        assert ride.seats_available == ride.seats_total - booked
        labels = [v.label for v in ride.via_points]
        assert labels.count("pickup") == booked
        assert labels.count("dropoff") == booked
