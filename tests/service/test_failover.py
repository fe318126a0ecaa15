"""Shard failover: crash a worker, recover it from WAL, keep serving.

Covers the ISSUE's service-level durability contract: a durable router
survives injected worker crashes (plain and mid-book) with zero state loss,
a service restart over the same directory cold-recovers every shard, and
crash injection without durability is refused outright.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.request import RideRequest
from repro.durability import DurabilityConfig
from repro.exceptions import ConfigurationError, WorkerCrashError, XARError
from repro.service import ShardRouter


@pytest.fixture
def durable_service(region, tmp_path):
    router = ShardRouter(
        region,
        2,
        seed=11,
        durability=DurabilityConfig(directory=str(tmp_path), fsync_every=8),
    )
    yield router
    router.close()


def _request(region, request_id, src, dst):
    return RideRequest(
        request_id=request_id,
        source=src,
        destination=dst,
        window_start_s=0.0,
        window_end_s=3600.0,
        walk_threshold_m=region.config.default_walk_threshold_m,
    )


def _seed(service, city, rng, *, n_creates=20, n_books=40):
    """Deterministic workload across both shards; returns bookings landed."""
    nodes = list(city.nodes())
    for _ in range(n_creates):
        a, b = rng.sample(nodes, 2)
        try:
            service.create(
                city.position(a), city.position(b),
                rng.uniform(0.0, 300.0), 2, None,
            )
        except XARError:
            continue
    booked = 0
    request_id = 90_000
    for _ in range(n_books):
        a, b = rng.sample(nodes, 2)
        request_id += 1
        request = _request(
            service.region, request_id, city.position(a), city.position(b)
        )
        try:
            matches = service.search(request)
        except XARError:
            continue
        if not matches:
            continue
        try:
            service.book(request, matches[0])
        except XARError:
            continue
        booked += 1
    return booked


def test_crash_injection_requires_durability(service):
    with pytest.raises(ConfigurationError, match="durable"):
        service.crash_shard(0)


def test_plain_crash_fails_over_with_state_intact(durable_service, city):
    booked = _seed(durable_service, city, random.Random(21))
    assert booked > 0
    rides = sorted(r.ride_id for r in durable_service.active_rides())
    bookings = sorted(b.request_id for b in durable_service.bookings())

    durable_service.crash_shard(0)
    assert durable_service.shards[0].worker.crashed
    assert durable_service.supervise() == 1
    assert durable_service.supervise() == 0  # idempotent once healthy

    assert sorted(
        r.ride_id for r in durable_service.active_rides()
    ) == rides
    assert sorted(
        b.request_id for b in durable_service.bookings()
    ) == bookings
    assert durable_service.last_recoveries[0]["replayed_ops"] > 0
    failovers = durable_service.metrics.counter(
        "xar_failovers_total", labels=("shard",)
    ).labels(shard="0").value
    assert failovers == 1
    assert durable_service.audit()["violations"] == 0


def test_crashed_shard_recovers_transparently_on_next_use(
    durable_service, city
):
    """No explicit supervise(): the first op that touches the dead shard
    triggers the failover inline and is served by the recovered stack."""
    _seed(durable_service, city, random.Random(22), n_creates=8, n_books=0)
    durable_service.crash_shard(1)
    assert durable_service.shards[1].worker.crashed
    rides = durable_service.active_rides()  # touches every shard
    assert rides
    assert not any(s.worker.crashed for s in durable_service.shards)


def test_mid_book_crash_completes_the_interrupted_booking(
    durable_service, region, city
):
    src = city.position(0)
    dst = city.position(city.node_count - 1)
    ride = durable_service.create(src, dst, 0.0, 3, None)
    home = durable_service.shard_of_ride(ride.ride_id)
    request = _request(region, 777, src, dst)
    match = next(
        m for m in durable_service.search(request)
        if m.ride_id == ride.ride_id
    )

    durable_service.crash_shard(home, mid_book=True)
    # Mid-op crashes re-raise after failover: the WAL already holds the op,
    # so a blind client retry could double-book — the caller must re-check.
    with pytest.raises(WorkerCrashError):
        durable_service.book(request, match)

    assert not durable_service.shards[home].worker.crashed
    assert [b.request_id for b in durable_service.bookings()] == [777]
    assert durable_service.find_ride(ride.ride_id).seats_available == 2
    assert durable_service.last_recoveries[home]["replayed_ops"] >= 2
    assert durable_service.audit()["violations"] == 0


def test_restart_recovers_cold_state(region, city, tmp_path):
    config = DurabilityConfig(directory=str(tmp_path), fsync_every=8)
    with ShardRouter(region, 2, seed=11, durability=config) as first:
        booked = _seed(first, city, random.Random(33))
        rides = sorted(r.ride_id for r in first.active_rides())
        bookings = sorted(b.request_id for b in first.bookings())
    assert booked > 0 and rides

    with ShardRouter(region, 2, seed=11, durability=config) as second:
        assert set(second.last_recoveries) == {0, 1}
        assert sorted(r.ride_id for r in second.active_rides()) == rides
        assert sorted(b.request_id for b in second.bookings()) == bookings
        assert second.audit()["violations"] == 0


def test_ops_waiting_behind_a_crash_bounce_and_land_on_the_recovered_shard(
    durable_service, city
):
    """Creates admitted while the job that kills the worker holds the turn
    never start on the dead engine: each bounces to its own caller, which
    recovers the shard (once, whoever gets there first) and lands its create
    on the recovered engine exactly once."""
    worker = durable_service.shards[0].worker
    nodes = list(city.nodes())
    supply = [
        (city.position(a), city.position(b), float(i))
        for i, (a, b) in enumerate(zip(nodes[::7], nodes[211::7]))
        if durable_service.table.slot_of_point(city.position(a)) == 0
    ][:5]
    assert len(supply) == 5
    inside, gate = threading.Event(), threading.Event()
    created, errors = [], []

    def die():
        inside.set()
        assert gate.wait(timeout=5)
        raise WorkerCrashError("injected crash in shard 0")

    def kill():
        with pytest.raises(WorkerCrashError):
            worker.call("crash", die)

    def create(ride):
        try:
            created.append(durable_service.create(*ride).ride_id)
        except XARError as exc:
            errors.append(exc)

    killer = threading.Thread(target=kill)
    killer.start()
    assert inside.wait(timeout=5)
    creators = [threading.Thread(target=create, args=(ride,))
                for ride in supply]
    for thread in creators:
        thread.start()
    deadline = time.monotonic() + 5.0
    while worker.in_flight < 1 + len(supply):  # all parked behind the kill
        assert time.monotonic() < deadline, "creates were never admitted"
        time.sleep(0.001)
    gate.set()
    for thread in [killer, *creators]:
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    assert worker.crashed and not errors
    assert durable_service.shards[0].worker is not worker
    assert worker.stats_snapshot()["completed"] == {}  # none ran on it
    failovers = durable_service.metrics.get("xar_failovers_total")
    assert failovers.labels(shard="0").value == 1
    assert sorted(created) == sorted(
        ride.ride_id for ride in durable_service.active_rides())
    assert len(created) == len(supply)
    durable_service.crash_shard(0)
    durable_service.crash_shard(0)  # already dead: nothing to kill
    assert durable_service.supervise() == 1
