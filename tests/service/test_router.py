"""ShardRouter: routing rules, fan-out merge, admission control, audit."""

from __future__ import annotations

import pytest

from repro.exceptions import ShardOverloadError, UnknownRideError
from repro.service import ShardRouter, merge_matches, rank_key
from repro.service.merge import MatchOption


def _replay(service, requests, looks=0):
    """Minimal sequential replay: search, book best, create on miss."""
    for request in requests:
        matches = service.search(request)
        booked = False
        for match in matches:
            try:
                service.book(request, match)
                booked = True
                break
            except Exception:
                continue
        if not booked:
            service.create(request.source, request.destination, request.window_start_s)


def test_create_routes_to_home_shard_and_ride_ids_encode_it(service, workload):
    requests = list(workload)[:30]
    for request in requests:
        ride = service.create(
            request.source, request.destination, request.window_start_s
        )
        home = service.shard_map.shard_of_point(request.source)
        assert service.shard_of_ride(ride.ride_id) == home
        assert ride.ride_id in service.shards[home].engine.rides


def test_ride_ids_are_globally_unique_across_shards(service4, workload):
    requests = list(workload)[:40]
    ids = []
    for request in requests:
        ids.append(
            service4.create(
                request.source, request.destination, request.window_start_s
            ).ride_id
        )
    assert len(set(ids)) == len(ids)


def test_search_merges_shards_in_engine_rank_order(service, workload):
    requests = list(workload)[:60]
    _replay(service, requests)
    ranked = 0
    for request in requests:
        matches = service.search(request)
        keys = [rank_key(m) for m in matches]
        assert keys == sorted(keys)
        ranked += len(matches)
    assert ranked > 0, "a replayed workload must produce some matches"


def test_fanout_all_sees_every_shards_rides(region, workload):
    requests = list(workload)[:60]
    with ShardRouter(region, 2, fanout="all", seed=11) as wide:
        _replay(wide, requests)
        for request in requests[:20]:
            matches = wide.search(request)
            shards_seen = {wide.shard_of_ride(m.ride_id) for m in matches}
            # With fan-out to all shards nothing restricts the answer to the
            # request's local shards (the set may still be small or empty).
            assert shards_seen <= set(range(wide.n_shards))


def test_book_and_cancel_route_by_ride_lane(service, workload):
    request = list(workload)[0]
    ride = service.create(request.source, request.destination, request.window_start_s)
    service.cancel(ride)
    with pytest.raises(UnknownRideError):
        service.find_ride(ride.ride_id)


def test_track_all_is_coalesced_and_amortized(service, workload):
    _replay(service, list(workload)[:20])
    moved = service.track_all(9 * 3600.0)
    assert moved >= 0
    # A second tick at the same simulated time is coalesced away entirely.
    assert service.track_all(9 * 3600.0) == 0
    assert service.track_all(8 * 3600.0) == 0  # older ticks are no-ops too


def test_active_rides_spans_all_shards(service, workload):
    requests = list(workload)[:20]
    for request in requests:
        service.create(request.source, request.destination, request.window_start_s)
    rides = service.active_rides()
    assert len(rides) == 20
    homes = {service.shard_of_ride(r.ride_id) for r in rides}
    assert len(homes) > 1, "a city-wide workload should populate both shards"


def test_audit_clean_after_replay(service, workload):
    _replay(service, list(workload)[:80])
    audit = service.audit()
    assert audit["violations"] == 0
    assert set(audit["per_shard"]) == {0, 1}


def test_fully_shed_search_raises_overload(region, workload):
    """When every consulted shard's read budget is gone, the search sheds."""
    import threading

    requests = list(workload)[:5]
    service = ShardRouter(region, 1, queue_depth=1, seed=3)
    try:
        release = threading.Event()
        started = threading.Event()

        def hog():
            def block():
                started.set()
                release.wait()

            service.shards[0].worker.execute_inline("search", block)

        thread = threading.Thread(target=hog)
        thread.start()
        started.wait(timeout=5)  # one inline read now holds the only permit
        with pytest.raises(ShardOverloadError):
            service.search(requests[0])
        release.set()
        thread.join(timeout=5)
        assert service.stats()["total_shed"] >= 1
    finally:
        service.close()


def test_a_mutation_beyond_the_budget_sheds_and_is_counted(region, workload):
    """With ``queue_depth=1`` and one op of a shard in flight on another
    thread, a create routed to that shard is refused at once — it neither
    waits nor queues — and counted as shed."""
    import threading

    request = list(workload)[0]
    service = ShardRouter(region, 2, queue_depth=1, seed=3)
    worker = service.shards[service.table.slot_of_point(request.source)].worker
    release = threading.Event()
    started = threading.Event()
    outcome = []

    def block():
        started.set()
        assert release.wait(timeout=10)

    def create():
        try:
            outcome.append(service.create(
                request.source, request.destination, request.window_start_s))
        except ShardOverloadError as exc:
            outcome.append(exc)

    blocker = threading.Thread(target=worker.call, args=("admin", block))
    creator = threading.Thread(target=create)
    try:
        blocker.start()
        assert started.wait(timeout=5)
        creator.start()
        creator.join(timeout=5)
        assert not creator.is_alive(), "the create waited instead of shedding"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ShardOverloadError)
        assert outcome[0].operation == "create"
        ops = service.metrics.get("xar_shard_ops_total")
        assert ops.labels(shard=str(worker.shard_id), op="create",
                          outcome="shed").value == 1
    finally:
        release.set()
        blocker.join(timeout=5)
        creator.join(timeout=5)
        service.close()


def test_a_thread_router_serves_every_op_without_a_shard_thread(
    region, workload
):
    """Create, book and tick run on the caller's thread: no ``xar-shard-*``
    thread is ever started, and the shards' stats still count every op."""
    import threading

    before = {thread.ident for thread in threading.enumerate()}
    with ShardRouter(region, 2, seed=11) as service:
        requests = list(workload)[:60]
        _replay(service, requests)
        service.track_all(600.0)
        started = [thread.name for thread in threading.enumerate()
                   if thread.ident not in before]
        assert not [name for name in started if name.startswith("xar-shard")]
        completed = {}
        for shard in service.stats()["shards"]:
            for op, n in shard["completed"].items():
                completed[op] = completed.get(op, 0) + n
        assert completed["create"] > 0 and completed["book"] > 0
        assert completed["track"] == 2  # one sweep per shard
        assert len(service.bookings()) == completed["book"]


def test_stats_surface_shed_and_shard_sizes(service, workload):
    _replay(service, list(workload)[:30])
    stats = service.stats()
    assert stats["n_shards"] == 2
    assert len(stats["shards"]) == 2
    assert sum(s["clusters"] for s in stats["shards"]) == service.region.n_clusters
    assert stats["total_shed"] == 0  # sequential replay never fills queues


def test_bookings_ledger_aggregates_shards(service, workload):
    _replay(service, list(workload)[:80])
    records = service.bookings()
    assert records, "replay should book at least one request"
    for record in records:
        ride = service.find_ride(record.ride_id)
        assert ride.ride_id == record.ride_id


def test_merge_matches_is_a_stable_k_way_merge():
    def option(ride_id, walk, eta):
        return MatchOption(
            ride_id=ride_id,
            request_id=1,
            pickup_cluster=0,
            pickup_landmark=0,
            walk_source_m=walk,
            dropoff_cluster=1,
            dropoff_landmark=1,
            walk_destination_m=0.0,
            eta_pickup_s=eta,
            eta_dropoff_s=eta + 60.0,
            detour_estimate_m=0.0,
        )

    a = [option(1, 10.0, 5.0), option(3, 30.0, 5.0)]
    b = [option(2, 20.0, 5.0), option(4, 30.0, 1.0)]
    merged = merge_matches([a, b])
    assert [m.ride_id for m in merged] == [1, 2, 4, 3]
    assert [m.ride_id for m in merge_matches([a, b], k=2)] == [1, 2]
    assert merge_matches([]) == []


def test_invalid_fanout_rejected(region):
    with pytest.raises(ValueError):
        ShardRouter(region, 2, fanout="sideways")
