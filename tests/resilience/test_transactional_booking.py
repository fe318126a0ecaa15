"""Transactional booking: a failed book() is a byte-identical no-op."""

import pytest

import repro.core.booking as booking
from repro.core import XAREngine
from repro.core.booking import book_ride
from repro.exceptions import BookingError, NoPathError
from repro.resilience import InvariantAuditor, diff_ride, restore_ride, snapshot_ride
from tests.entry_faults import corrupt_entry


class FlakySplices:
    """Wraps the booking's splice path search; raises NoPathError on armed
    call numbers (counting only real shortest-path computations)."""

    def __init__(self, splice_path):
        self.splice_path = splice_path
        self.calls = 0
        self.fail_calls = set()

    def arm(self, *call_numbers):
        self.fail_calls = set(call_numbers)

    def __call__(self, engine, a, b):
        if a != b:
            self.calls += 1
            if self.calls in self.fail_calls:
                raise NoPathError(a, b)
        return self.splice_path(engine, a, b)


@pytest.fixture
def flaky_setup(region, city, rng, monkeypatch):
    """Engine whose splices can be made to fail, one ride, one bookable
    match."""
    splices = FlakySplices(booking._splice_path)
    monkeypatch.setattr(booking, "_splice_path", splices)
    engine = XAREngine(region)
    nodes = list(city.nodes())
    for _i in range(60):
        a, b = rng.sample(nodes, 2)
        try:
            engine.create_ride(
                city.position(a), city.position(b), departure_s=rng.uniform(0, 900)
            )
        except Exception:
            continue
    for _trial in range(120):
        a, b = rng.sample(nodes, 2)
        request = engine.make_request(city.position(a), city.position(b), 0.0, 3600.0)
        matches = engine.search(request)
        if matches:
            return engine, splices, request, matches[0]
    pytest.skip("no bookable match produced")


class TestRollbackOnRoutingFailure:
    def test_nopath_mid_splice_is_a_noop(self, flaky_setup):
        """The acceptance criterion: injected NoPathError during the splice
        leaves seats, detour budget and index membership byte-identical."""
        engine, splices, request, match = flaky_setup
        auditor = InvariantAuditor(engine)
        before = auditor.snapshot(match.ride_id)
        assert before is not None

        # Fail the *second* shortest-path computation: the splice is
        # genuinely mid-flight when the fault hits.
        splices.arm(splices.calls + 2)
        try:
            engine.book(request, match)
        except NoPathError:
            pass
        else:  # pragma: no cover - depends on splice geometry
            pytest.skip("booking needed fewer than 2 shortest paths")

        assert auditor.compare(before) == []
        assert auditor.audit().ok

    def test_rollback_recorded(self, flaky_setup):
        engine, splices, request, match = flaky_setup
        splices.arm(splices.calls + 1)
        with pytest.raises(NoPathError):
            engine.book(request, match)
        assert len(engine.rollbacks) == 1
        rollback = engine.rollbacks[0]
        assert rollback.request_id == request.request_id
        assert rollback.ride_id == match.ride_id
        assert rollback.error == "NoPathError"

    def test_booking_succeeds_after_transient_fault_clears(self, flaky_setup):
        engine, splices, request, match = flaky_setup
        splices.arm(splices.calls + 1)
        with pytest.raises(NoPathError):
            engine.book(request, match)
        splices.arm()  # fault clears
        record = engine.book(request, match)
        assert record.ride_id == match.ride_id
        assert auditor_ok(engine)

    def test_failed_booking_then_search_still_consistent(self, flaky_setup):
        engine, splices, request, match = flaky_setup
        splices.arm(splices.calls + 1)
        with pytest.raises(NoPathError):
            engine.book(request, match)
        # The ride must still be discoverable exactly as before the failure.
        matches = engine.search(request)
        assert any(m.ride_id == match.ride_id for m in matches)


class TestStaleMatchRollback:
    def test_stale_match_rolls_back(self, flaky_setup):
        engine, splices, request, match = flaky_setup
        # Make the match stale: forget the pickup cluster server-side.
        with corrupt_entry(engine.ride_entries, match.ride_id) as entry:
            entry.reachable.pop(match.pickup_cluster, None)
        before = snapshot_ride(engine, match.ride_id)
        with pytest.raises(BookingError):
            engine.book(request, match)
        # The refused booking is a no-op relative to the state book() saw.
        assert diff_ride(engine, before) == []
        assert len(engine.rollbacks) == 1


class TestSnapshotRestore:
    def test_restore_is_idempotent(self, flaky_setup):
        engine, _splices, _request, match = flaky_setup
        snap = snapshot_ride(engine, match.ride_id)
        restore_ride(engine, snap)
        restore_ride(engine, snap)
        assert diff_ride(engine, snap) == []
        assert InvariantAuditor(engine).audit().ok

    def test_snapshot_of_unknown_ride_is_none(self, engine):
        assert snapshot_ride(engine, 424242) is None

    def test_diff_detects_seat_change(self, flaky_setup):
        engine, _splices, _request, match = flaky_setup
        snap = snapshot_ride(engine, match.ride_id)
        engine.rides[match.ride_id].seats_available -= 1
        assert any("seats" in d for d in diff_ride(engine, snap))


class TestSeatExhaustionGuard:
    def test_book_refuses_when_seats_vanish_mid_splice(self, flaky_setup):
        """Look-to-book race: seats hit 0 between the entry check and the
        splice must raise BookingError, never over-book."""
        engine, _splices, request, match = flaky_setup
        ride = engine.rides[match.ride_id]
        route_before = ride.route
        original = ride.replace_route

        def hostile(route, vias):
            ride.seats_available = 0  # concurrent booking wins the race
            ride.replace_route = original
            return original(route, vias)

        ride.replace_route = hostile
        with pytest.raises(BookingError, match="ran out of seats"):
            book_ride(engine, request, match)
        assert ride.seats_available == 0
        assert ride.route == route_before
        # The refused booking installed no pickup via-point.
        assert "pickup" not in [via.label for via in ride.via_points]

    def test_exhausted_ride_rejects_next_booking(self, flaky_setup):
        engine, _splices, request, match = flaky_setup
        engine.rides[match.ride_id].seats_available = 0
        with pytest.raises(BookingError):
            engine.book(request, match)
        assert engine.rides[match.ride_id].seats_available == 0


def auditor_ok(engine) -> bool:
    return InvariantAuditor(engine).audit().ok
