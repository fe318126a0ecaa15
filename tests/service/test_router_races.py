"""Regression tests for the router's concurrency bugs.

Each test pins one fixed bug:

* a tracking tick every shard shed used to advance the watermark anyway,
  so a retry at the same simulated time was coalesced away forever;
* ``partial_searches`` / ``search_failures`` were unlocked ``+=`` on the
  router, losing updates under concurrent fan-outs;
* ``find_ride`` read engine dicts without the engine lock, observing rides
  mid-removal.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import XAREngine
from repro.exceptions import UnknownRideError, XARError
from repro.service import ShardRouter


def test_shed_tick_does_not_advance_watermark(region, workload):
    """A tick every shard sheds must be retryable at the same timestamp."""
    service = ShardRouter(region, 1, queue_depth=1, seed=3)
    try:
        worker = service.shards[0].worker
        release = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            release.wait(timeout=10)

        # A job blocked on another thread fills the (depth-1) admission
        # budget: the next job — including a tracking tick — sheds.
        blocker = threading.Thread(target=worker.call, args=("admin", block))
        blocker.start()
        assert running.wait(timeout=5)

        assert service.track_all(100.0) == 0  # every shard shed the tick
        assert service.dropped_ticks == 1

        release.set()
        blocker.join(timeout=5)
        assert not blocker.is_alive()

        # The fix: the watermark did not advance, so the SAME timestamp is
        # not coalesced away — the sweep finally happens.
        service.track_all(100.0)
        assert worker.stats_snapshot()["completed"].get("track", 0) == 1
        ticks = service.metrics.get("xar_router_track_ticks_total")
        assert ticks.labels(outcome="applied").value == 1
        assert ticks.labels(outcome="dropped").value == 1

        # And the watermark DID commit on the applied tick: replaying the
        # timestamp is coalesced as before.
        assert service.track_all(100.0) == 0
        assert ticks.labels(outcome="coalesced").value == 1
    finally:
        service.close()


def test_search_failure_counters_are_exact_under_contention(region, workload):
    """N threads x M failing fan-outs must count exactly N*M*shards."""

    class _FailingEngine(XAREngine):
        def search(self, request, k=None, ranking=None, *, peers=()):
            raise XARError("injected search failure")

    def factory(shard_id: int, n_shards: int) -> XAREngine:
        return _FailingEngine(
            region, ride_id_start=shard_id + 1, ride_id_step=n_shards
        )

    n_threads, per_thread = 8, 50
    request = list(workload)[0]
    service = ShardRouter(
        region, 2, fanout="all", seed=7, engine_factory=factory
    )
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # amplify lost-update interleavings
    try:
        def hammer():
            for _ in range(per_thread):
                with pytest.raises(XARError):
                    service.search(request)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every search consults both shards and fails on both (one pass
        # over both engines that raises counts a failure per shard): the
        # unlocked ``+=`` this replaces dropped a visible fraction of these.
        assert service.search_failures == n_threads * per_thread * 2
    finally:
        sys.setswitchinterval(old_interval)
        service.close()


def test_find_ride_never_observes_a_half_removed_ride(region, workload):
    """find_ride racing a mutation on another thread must block, not miss."""
    request = list(workload)[0]
    service = ShardRouter(region, 2, seed=11)
    try:
        ride = service.create(
            request.source, request.destination, request.window_start_s
        )
        shard = service.shards[service.shard_of_ride(ride.ride_id)]
        engine = shard.engine
        in_critical = threading.Event()
        resume = threading.Event()

        def mutate():
            # Simulate the mid-mutation window: under the engine lock the
            # ride is out of ``rides`` and not yet in ``completed_rides``.
            with engine.lock:
                popped = engine.rides.pop(ride.ride_id)
                in_critical.set()
                resumed = resume.wait(timeout=2)
                engine.rides[ride.ride_id] = popped
            # Nothing set ``resume`` unless find_ride ran inside this window:
            # a run that serialises the two fails here, fast, instead of
            # passing late.
            assert resumed, "the mutation was not raced by find_ride"

        # A job runs on the thread that submits it, so the mutation needs a
        # thread of its own to be mid-flight while find_ride runs here.
        submitted = []
        mutator = threading.Thread(
            target=lambda: submitted.append(shard.worker.submit("admin", mutate))
        )
        mutator.start()
        try:
            assert in_critical.wait(timeout=2)
            # Pre-fix find_ride read the dicts lock-free and raised
            # UnknownRideError here.  Post-fix it blocks on the engine lock
            # (released once `resume` fires) and resolves the ride.
            threading.Timer(0.2, resume.set).start()
            found = service.find_ride(ride.ride_id)
            assert found.ride_id == ride.ride_id
        finally:
            resume.set()
            mutator.join(timeout=2)
        assert not mutator.is_alive()
        submitted[0].result(timeout=0)

        # Unknown ids still raise.
        with pytest.raises(UnknownRideError):
            service.find_ride(ride.ride_id + 2 * service.n_shards * 1000)
    finally:
        service.close()
