"""Exception paths: every public operation fails loudly, typed, and cleanly."""

import pytest

from repro.core import XAREngine
from repro.exceptions import (
    BookingError,
    UncoveredLocationError,
    UnknownRideError,
)
from repro.geo import GeoPoint
from repro.resilience import InvariantAuditor
from tests.entry_faults import corrupt_entry

FAR_AWAY = GeoPoint(41.9, -74.0)  # nowhere near the synthetic city


def _ride_and_match(engine, city, rng):
    nodes = list(city.nodes())
    for _ in range(40):
        a, b = rng.sample(nodes, 2)
        try:
            engine.create_ride(
                city.position(a), city.position(b), departure_s=rng.uniform(0, 900)
            )
        except Exception:
            continue
    for _ in range(120):
        a, b = rng.sample(nodes, 2)
        request = engine.make_request(city.position(a), city.position(b), 0.0, 3600.0)
        matches = engine.search(request)
        if matches:
            return request, matches[0]
    pytest.skip("no bookable match produced")


class TestUnknownRide:
    def test_track_unknown_ride(self, engine):
        with pytest.raises(UnknownRideError):
            engine.track(424242, now_s=100.0)

    def test_remove_unknown_ride(self, engine):
        with pytest.raises(UnknownRideError):
            engine.remove_ride(424242)

    def test_reindex_unknown_ride(self, engine):
        with pytest.raises(UnknownRideError):
            engine.reindex_ride(424242)

    def test_book_on_vanished_ride(self, engine, city, rng):
        request, match = _ride_and_match(engine, city, rng)
        engine.remove_ride(match.ride_id)
        # The match is a stale client-side handle: booking it is a booking
        # failure (the caller retries another match), not an unknown-ride
        # protocol error.
        with pytest.raises(BookingError):
            engine.book(request, match)


class TestCoverage:
    def test_strict_engine_rejects_uncovered_search(self, region, city):
        engine = XAREngine(region, strict_coverage=True)
        request = engine.make_request(FAR_AWAY, city.position(0), 0.0, 3600.0)
        with pytest.raises(UncoveredLocationError):
            engine.search(request)

    def test_strict_engine_rejects_uncovered_create(self, region, city):
        engine = XAREngine(region, strict_coverage=True)
        with pytest.raises(UncoveredLocationError):
            engine.create_ride(city.position(0), FAR_AWAY, departure_s=0.0)

    def test_default_engine_serves_uncovered_points_no_matches(self, engine, city):
        """Seed behaviour is preserved: lenient engines answer ``[]``."""
        request = engine.make_request(FAR_AWAY, city.position(0), 0.0, 3600.0)
        assert engine.search(request) == []

    def test_strict_engine_accepts_covered_points(self, region, city):
        engine = XAREngine(region, strict_coverage=True)
        ride = engine.create_ride(
            city.position(0), city.position(city.node_count - 1), departure_s=0.0
        )
        assert ride.ride_id in engine.rides


class TestCancellationAtomicity:
    """Satellite: a cancelled ride never surfaces again, even when its index
    entry was corrupted before the cancellation."""

    def test_cancelled_ride_vanishes_from_search(self, engine, city, rng):
        request, match = _ride_and_match(engine, city, rng)
        engine.remove_ride(match.ride_id)
        assert all(m.ride_id != match.ride_id for m in engine.search(request))
        assert InvariantAuditor(engine).audit().ok

    def test_cancel_with_corrupted_entry_leaves_no_strays(self, engine, city, rng):
        request, match = _ride_and_match(engine, city, rng)
        ride_id = match.ride_id
        # Corrupt the entry: it forgets half of its reachable clusters, so an
        # entry-driven unindex alone would leave stray index tuples behind.
        with corrupt_entry(engine.ride_entries, ride_id) as entry:
            forgotten = list(entry.reachable)[::2]
            for cluster_id in forgotten:
                entry.reachable.pop(cluster_id)

        engine.remove_ride(ride_id)

        index = engine.cluster_index
        for cluster_id in range(index.n_clusters):
            assert index.eta(cluster_id, ride_id) is None
        assert all(m.ride_id != ride_id for m in engine.search(request))
        assert InvariantAuditor(engine).audit().ok

    def test_purge_ride_reports_removed_strays(self, engine, city, rng):
        _request, match = _ride_and_match(engine, city, rng)
        entry = engine.ride_entries[match.ride_id]
        n_clusters = len(entry.reachable)
        engine.ride_entries.pop(match.ride_id)  # lose the entry entirely
        assert engine.cluster_index.purge_ride(match.ride_id) == n_clusters
        assert engine.cluster_index.purge_ride(match.ride_id) == 0
