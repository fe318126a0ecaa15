"""ProcRouter: the adapter surface over subprocess shards.

Parity with thread mode where behaviour is shared, divergence where process
mode is strictly stronger (idempotent book retry across a mid-op crash).
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import (
    RpcTransportError,
    ShardQuarantinedError,
    UnknownRideError,
)
from repro.service.ops import OPS
from repro.service.proc import ProcRouter
from repro.service.proc.supervisor import LIVE, QUARANTINED

from .conftest import fast_config, make_request, seed_fleet


def _await(predicate, timeout_s=15.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestAdapterSurface:
    def test_full_surface_over_rpc(self, proc_service, small_city):
        booked = seed_fleet(proc_service, small_city)
        assert booked > 0

        rides = proc_service.active_rides()
        assert rides
        # Ride-id lanes encode the home shard, mode-independently.
        assert {proc_service.shard_of_ride(r.ride_id) for r in rides} <= {0, 1}

        one = rides[0]
        assert proc_service.find_ride(one.ride_id).ride_id == one.ride_id
        assert len(proc_service.bookings()) == booked
        assert proc_service.rollback_count() >= 0

        stats = proc_service.stats()
        assert stats["n_shards"] == 2
        assert stats["states"] == {0: "live", 1: "live"}
        assert all(not s.get("unreachable") for s in stats["shards"])

        index = proc_service.index_stats()
        assert sum(index.values()) > 0

        assert proc_service.track_all(60.0) >= 0
        assert proc_service.track_all(60.0) == 0  # coalesced behind watermark
        assert proc_service.audit()["violations"] == 0

    def test_cancel_routes_by_ride_lane(self, proc_service, small_city):
        src = small_city.position(0)
        dst = small_city.position(small_city.node_count - 1)
        ride = proc_service.create(src, dst, 0.0, 2, None)
        proc_service.cancel(ride)
        with pytest.raises(UnknownRideError):
            proc_service.find_ride(ride.ride_id)

    def test_unknown_ride_error_crosses_the_process_boundary(
        self, proc_service
    ):
        with pytest.raises(UnknownRideError):
            proc_service.find_ride(999_983)  # valid lane, no such ride


class TestMidBookCrash:
    def test_idempotent_retry_completes_the_interrupted_booking(
        self, proc_service, small_region, small_city
    ):
        """The process-mode upgrade over thread mode: a book whose shard
        died after the WAL append is *retried under its idempotency key*
        and succeeds — the recovered ledger answers the duplicate — where
        the thread router had to surface WorkerCrashError to the caller."""
        src = small_city.position(0)
        dst = small_city.position(small_city.node_count - 1)
        ride = proc_service.create(src, dst, 0.0, 3, None)
        home = proc_service.shard_of_ride(ride.ride_id)
        request = make_request(small_region, 777, src, dst)
        match = next(m for m in proc_service.search(request)
                     if m.ride_id == ride.ride_id)

        proc_service.crash_shard(home, mid_book=True)
        booking = proc_service.book(request, match)  # no exception
        assert booking.request_id == 777

        # Exactly once: recovery completed the WAL'd booking, the retry
        # deduped against the replayed ledger instead of double-applying.
        assert [b.request_id for b in proc_service.bookings()] == [777]
        assert proc_service.find_ride(ride.ride_id).seats_available == 2
        assert proc_service.last_recoveries[home]["replayed_ops"] >= 2
        assert proc_service.audit()["violations"] == 0
        shard = proc_service.supervisor.shards[home]
        assert shard.restarts == 1


class TestRetriedCancellation:
    def test_resent_cancel_booking_returns_the_first_record_once(
        self, proc_service, small_region, small_city, monkeypatch
    ):
        """The same cancel_booking sent twice — once re-sent by the
        transport after its answer was lost on the way back, once more by
        the client — returns the first record and un-splices once."""
        src = small_city.position(0)
        dst = small_city.position(small_city.node_count - 1)
        ride = proc_service.create(src, dst, 0.0, 3, None)
        request = make_request(small_region, 778, src, dst)
        match = next(m for m in proc_service.search(request)
                     if m.ride_id == ride.ride_id)
        proc_service.book(request, match)
        assert proc_service.find_ride(ride.ride_id).seats_available == 2

        shard = proc_service.supervisor.shards[
            proc_service.shard_of_ride(ride.ride_id)]
        receive = shard._receive
        answers = []

        def lose_first_answer(sent):
            answer = receive(sent)  # the child has applied the call
            if not answers:
                answers.append(answer)
                raise RpcTransportError("answer lost", request_sent=True)
            return answer

        monkeypatch.setattr(shard, "_receive", lose_first_answer)
        record = proc_service.cancel_booking(778, ride.ride_id)
        monkeypatch.undo()

        assert record == OPS["cancel_booking"].decode_result(
            answers[0], small_region)
        after = proc_service.find_ride(ride.ride_id)
        assert after.seats_available == 3
        assert not after.passengers
        assert after.route == ride.route
        assert proc_service.cancel_booking(778, ride.ride_id) == record
        again = proc_service.find_ride(ride.ride_id)
        assert (again.seats_available, again.route) == (3, ride.route)
        assert proc_service.audit()["violations"] == 0


class TestDegradation:
    def test_quarantined_shard_degrades_searches_to_partial(
        self, small_region, small_city, saved_region_dir, tmp_path
    ):
        config = fast_config(str(tmp_path / "run"), saved_region_dir,
                             max_restarts=0, quarantine_cooldown_s=60.0)
        with ProcRouter(small_region, config, fanout="all") as service:
            assert service.wait_all_live(30.0)
            seed_fleet(service, small_city, n_books=0)

            service.crash_shard(0)
            shard = service.supervisor.shards[0]
            _await(lambda: shard.state == QUARANTINED, what="quarantine")

            # Fan-out search: the quarantined shard sheds, the live one
            # still answers — a partial result, not a failure.
            request = make_request(small_region, 50_001,
                                   small_city.position(1),
                                   small_city.position(30))
            service.search(request)  # must not raise
            assert service.partial_searches >= 1

            # A mutation whose home is the quarantined shard fails fast
            # with the quarantine subclass (callers can tell it apart).
            ride_id = next(
                rid for rid in range(1, 9)
                if service.shard_of_ride(rid) == 0
            )
            with pytest.raises(ShardQuarantinedError):
                service.supervisor.rpc(0, "find_ride", {"ride_id": ride_id},
                                       readonly=True, wait_live_s=0.0)
