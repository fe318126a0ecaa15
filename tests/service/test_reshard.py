"""Elastic resharding on both transports: splits, merges, crashes, races.

The contract under test: a reshard — even one killed halfway, even one
racing live traffic — is invisible to clients.  Every acknowledged ride
and booking survives, routing keeps resolving (lanes, homes, redirects),
and the invariant auditor stays clean.  Every test that takes the ``fleet``
fixture runs once over thread shards and once over process shards, from
one body: the router core, routing table and reshard machine are shared,
so the behaviour must be too.  (Process-only choreography — the SIGKILL
drain, parent-format manifests — lives in ``proc/test_proc_reshard.py``.)
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.durability import read_topology, recover_engine, topology_path
from repro.exceptions import ConfigurationError, ReshardError, XARError
from repro.service import ReshardConfig, ReshardController

from .conftest import Fleet

PHASES = ["drained", "synced", "carved", "committed", "swapped"]


def seed_supply(router, requests, n=40):
    rides = []
    for request in list(requests)[:n]:
        try:
            rides.append(
                router.create(
                    request.source, request.destination,
                    request.window_start_s, 3, None,
                )
            )
        except XARError:
            continue
    return rides


def replay(router, requests, *, seats=3):
    """Search, book the first workable match, create on miss.

    Returns ``(created_rides, booked_pairs)`` — only acknowledged ops.
    """
    rides, booked = [], []
    for request in requests:
        try:
            matches = router.search(request)
        except XARError:
            continue
        done = False
        for match in matches:
            try:
                record = router.book(request, match)
                booked.append((record.request_id, record.ride_id))
                done = True
                break
            except XARError:
                continue
        if not done:
            try:
                rides.append(
                    router.create(
                        request.source, request.destination,
                        request.window_start_s, seats, None,
                    )
                )
            except XARError:
                continue
    return rides, booked


def ledger_pairs(router):
    return {(r.request_id, r.ride_id) for r in router.bookings()}


def live_ids(router):
    return {ride.ride_id for ride in router.active_rides()}


def reshard_counts(router):
    return {
        labels.get("action"): child.value
        for labels, child in router.metrics.counter(
            "xar_reshard_total", labels=("action",)
        ).collect()
    }


def assert_every_ride_is_where_routing_says(fleet, router):
    for ride in router.active_rides():
        slot = router.shard_of_ride(ride.ride_id)
        assert slot in router.active_slot_ids()
        assert fleet.holds(router, slot, ride.ride_id), (
            f"ride {ride.ride_id} routes to slot {slot}, which lacks it"
        )


class _Die(RuntimeError):
    """Raised from a fault hook: the process 'dies' after this phase."""


def die_at(phase):
    def hook(point):
        if point == phase:
            raise _Die(point)

    return hook


# ----------------------------------------------------------------------
# Split / merge / budget / restart — one body, both transports
# ----------------------------------------------------------------------
def test_split_preserves_rides_and_bookings(fleet, workload, tmp_path):
    with fleet.open(tmp_path) as router:
        rides, booked = replay(router, list(workload)[:80])
        assert rides and booked
        before_pairs = ledger_pairs(router)
        before_live = live_ids(router)

        new_slot = router.split_shard(0)

        assert new_slot == 2
        assert router.shard_map.epoch == 1
        assert sorted(router.active_slot_ids()) == [0, 1, 2]
        assert ledger_pairs(router) == before_pairs
        assert live_ids(router) == before_live
        assert_every_ride_is_where_routing_says(fleet, router)
        assert router.audit()["violations"] == 0
        assert reshard_counts(router).get("split") == 1
        # The fleet still serves: a fresh ride lands on whichever child
        # owns its source cluster.
        request = list(workload)[100]
        ride = router.create(
            request.source, request.destination, request.window_start_s
        )
        home = router.shard_map.shard_of_point(request.source)
        assert router.shard_of_ride(ride.ride_id) == home
        assert fleet.holds(router, home, ride.ride_id)


def test_split_requires_reshard_mode(fleet, tmp_path):
    with fleet.open(tmp_path, max_shards=None) as router:
        with pytest.raises(ReshardError):
            router.split_shard(0)
        with pytest.raises(ReshardError):
            router.merge_shards(0, 1)


def test_lane_budget_bounds_lifetime_splits(fleet, workload, tmp_path):
    with fleet.open(tmp_path, max_shards=3) as router:
        seed_supply(router, workload)
        router.split_shard(0)
        with pytest.raises(ReshardError):
            router.split_shard(0)  # lanes 0..2 all issued
        # A refusal mutates nothing: the fleet is still whole and serving.
        assert sorted(router.active_slot_ids()) == [0, 1, 2]
        assert router.audit()["violations"] == 0


def test_merge_parks_the_lane_and_keeps_routing(fleet, workload, tmp_path):
    requests = list(workload)
    with fleet.open(tmp_path) as router:
        _rides, booked = replay(router, requests[:80])
        assert booked
        new_slot = router.split_shard(0)
        # Rides allocated on the new slot's own lane (so the merge has a
        # lane to park), each the exact corridor of the request it serves.
        corridors = {}
        for request in requests[80:140]:
            if router.shard_map.shard_of_point(request.source) == new_slot:
                ride = router.create(request.source, request.destination,
                                     request.window_start_s, 3, None)
                corridors[ride.ride_id] = request
        parked = sorted(corridors)
        assert parked, "no ride was allocated on the new slot's lane"
        lane = router.table.slot_lane[new_slot]
        assert all(
            (ride_id - 1) % router.table.lane_modulus == lane
            for ride_id in parked
        )
        before_pairs = ledger_pairs(router)
        before_live = live_ids(router)

        assert router.merge_shards(0, new_slot) == 0

        assert router.shard_map.epoch == 2
        assert sorted(router.active_slot_ids()) == [0, 1]
        assert reshard_counts(router).get("merge") == 1
        # Ledger exact, nothing lost, nothing duplicated.
        assert ledger_pairs(router) == before_pairs
        assert live_ids(router) == before_live
        assert len(router.bookings()) == len(before_pairs)
        # The parked lane and the merged-away slot id keep resolving.
        for ride_id in parked:
            assert router.shard_of_ride(ride_id) == 0
        for _request_id, ride_id in booked:
            assert router.shard_of_ride(ride_id) in router.active_slot_ids()
        assert_every_ride_is_where_routing_says(fleet, router)
        # Redirects are followed by every op kind: a create whose source
        # cluster the merged-away slot used to own, a search + book that
        # reaches a ride on the parked lane, a cancel of that booking.
        request = next(
            r for r in requests[140:]
            if router.shard_map.shard_of_point(r.source) == 0
        )
        ride = router.create(request.source, request.destination,
                             request.window_start_s, 3, None)
        assert router.shard_of_ride(ride.ride_id) == 0
        probe = next(
            (request, match)
            for ride_id, request in corridors.items()
            for match in router.search(request)
            if match.ride_id == ride_id
        )
        record = router.book(*probe)
        assert (record.request_id, record.ride_id) in ledger_pairs(router)
        router.cancel_booking(record.request_id, record.ride_id)
        assert router.find_ride(record.ride_id).ride_id == record.ride_id
        assert router.audit()["violations"] == 0
        # The freed slot pair can split again: the machine is reusable.
        assert router.split_shard(0) == 3


def test_restart_adopts_the_committed_topology(fleet, workload, tmp_path):
    with fleet.open(tmp_path) as router:
        _rides, booked = replay(router, list(workload)[:80])
        assert booked
        new_slot = router.split_shard(0)
        router.merge_shards(1, new_slot)
        router.split_shard(0)
        epoch = router.shard_map.epoch
        slots = sorted(router.active_slot_ids())
        pairs = ledger_pairs(router)
        live = live_ids(router)
    assert epoch == 3 and slots == [0, 1, 3]

    with fleet.open(tmp_path) as reopened:
        assert reopened.shard_map.epoch == epoch
        assert sorted(reopened.active_slot_ids()) == slots
        assert reopened.n_shards == 4  # the merged-away slot keeps its id
        assert ledger_pairs(reopened) == pairs
        assert live_ids(reopened) == live
        assert_every_ride_is_where_routing_says(fleet, reopened)
        assert reopened.audit()["violations"] == 0

    # A directory holding a committed topology refuses to open without
    # reshard mode — silently routing at the wrong WALs would be worse.
    with pytest.raises(ConfigurationError):
        fleet.open(tmp_path, max_shards=None)
    with pytest.raises(ConfigurationError):
        fleet.open(tmp_path, max_shards=9)  # lanes are fixed for life


# ----------------------------------------------------------------------
# Crash matrix: SIGKILL after each phase — old or new, never mixed
# ----------------------------------------------------------------------
def _crash_and_reopen(fleet, directory, workload, action, phase):
    """Run ``action`` with process death after ``phase``; returns what the
    service held before and the manifest epoch the crash left behind."""
    router = fleet.open(directory)
    try:
        replay(router, list(workload)[:80])
        if action == "merge":
            router.split_shard(0)
        epoch = router.shard_map.epoch
        pairs = ledger_pairs(router)
        live = live_ids(router)
        with pytest.raises(_Die):
            if action == "split":
                router.split_shard(0, fault_hook=die_at(phase))
            else:
                router.merge_shards(0, 2, fault_hook=die_at(phase))
    finally:
        router.abandon()
    manifest = read_topology(topology_path(str(directory)))
    return epoch, (manifest["epoch"] if manifest else 0), pairs, live


@pytest.mark.parametrize("phase", PHASES)
def test_crash_during_split_recovers_old_or_new_never_mixed(
    fleet, workload, tmp_path, phase
):
    """The headline: SIGKILL at any split phase recovers to exactly the old
    or exactly the new topology, exactly-once ledger intact."""
    before, after, pairs, live = _crash_and_reopen(
        fleet, tmp_path, workload, "split", phase
    )
    committed = phase in ("committed", "swapped")
    assert after == (before + 1 if committed else before), (
        f"a crash at {phase} left manifest epoch {after}"
    )
    with fleet.open(tmp_path) as recovered:
        expected_slots = [0, 1, 2] if committed else [0, 1]
        assert sorted(recovered.active_slot_ids()) == expected_slots
        assert ledger_pairs(recovered) == pairs
        assert live_ids(recovered) == live
        assert_every_ride_is_where_routing_says(fleet, recovered)
        assert recovered.audit()["violations"] == 0


@pytest.mark.parametrize("phase", ["drained", "carved", "committed"])
def test_crash_during_merge_recovers_old_or_new_never_mixed(
    fleet, workload, tmp_path, phase
):
    before, after, pairs, live = _crash_and_reopen(
        fleet, tmp_path, workload, "merge", phase
    )
    committed = phase == "committed"
    assert after == (before + 1 if committed else before)
    with fleet.open(tmp_path) as recovered:
        expected_slots = [0, 1] if committed else [0, 1, 2]
        assert sorted(recovered.active_slot_ids()) == expected_slots
        assert ledger_pairs(recovered) == pairs
        assert live_ids(recovered) == live
        assert_every_ride_is_where_routing_says(fleet, recovered)
        assert recovered.audit()["violations"] == 0


def test_aborted_reshard_resumes_the_old_topology_in_process(
    fleet, workload, tmp_path
):
    """A failure before the commit point unwinds without a restart: the
    sources resume exactly where they stopped."""
    with fleet.open(tmp_path) as router:
        replay(router, list(workload)[:60])
        pairs = ledger_pairs(router)
        live = live_ids(router)
        with pytest.raises(_Die):
            router.split_shard(0, fault_hook=die_at("carved"))
        assert router.shard_map.epoch == 0
        assert sorted(router.active_slot_ids()) == [0, 1]
        assert ledger_pairs(router) == pairs
        assert live_ids(router) == live
        rides, _booked = replay(router, list(workload)[60:90])
        assert rides, "the resumed fleet must keep serving"
        assert router.split_shard(0) == 2  # and can still reshard
        assert router.audit()["violations"] == 0


# ----------------------------------------------------------------------
# Ops racing a reshard
# ----------------------------------------------------------------------
def test_ops_that_wait_out_a_split_land_on_the_owning_slot(
    fleet, workload, tmp_path
):
    """Regression (stale route across a split): a create or book issued
    while its slot is parked for a split must re-resolve after the wait and
    land on — and later be found on — the slot that owns its source cluster
    / ride *after* the swap, not on the slot it first resolved to."""
    requests = list(workload)
    with fleet.open(tmp_path) as router:
        # Matches against rides homed on slot 0, found before the split:
        # each ride is the exact corridor of the request that books it.
        probes = []
        for request in requests[:80]:
            if router.shard_map.shard_of_point(request.source) != 0:
                continue
            ride = router.create(request.source, request.destination,
                                 request.window_start_s, 3, None)
            probes.extend(
                (request, match) for match in router.search(request)
                if match.ride_id == ride.ride_id
            )
        sources = [
            r for r in requests[200:320]
            if router.shard_map.shard_of_point(r.source) == 0
        ]
        assert len(probes) >= 5 and len(sources) >= 10
        created, booked, errors = [], [], []

        def create(request):
            try:
                ride = router.create(request.source, request.destination,
                                     request.window_start_s, 2, None)
                created.append((request, ride.ride_id))
            except XARError as exc:
                errors.append(exc)

        def book(request, match):
            try:
                booked.append(router.book(request, match))
            except XARError:
                pass  # a legitimately unbookable match, not a routing bug

        threads = [
            threading.Thread(target=create, args=(r,)) for r in sources[:12]
        ] + [
            threading.Thread(target=book, args=probe) for probe in probes[:12]
        ]

        def hook(phase):
            if phase == "drained":
                # Slot 0 is parked: these ops resolve to it and wait.
                for thread in threads:
                    thread.start()
                time.sleep(0.3)

        new_slot = router.split_shard(0, fault_hook=hook)
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert created and booked

        homes = set()
        for request, ride_id in created:
            home = router.shard_map.shard_of_point(request.source)
            homes.add(home)
            assert router.shard_of_ride(ride_id) == home
            assert fleet.holds(router, home, ride_id), (
                f"ride {ride_id} was created on a slot that does not own "
                f"its source cluster (owner: slot {home})"
            )
        assert new_slot in homes, "no waiting create was carved to the right"
        for record in booked:
            home = router.shard_of_ride(record.ride_id)
            assert fleet.holds(router, home, record.ride_id)
            assert (record.request_id, record.ride_id) in ledger_pairs(router)
            assert record.request_id in router.find_ride(
                record.ride_id
            ).passengers
        assert router.audit()["violations"] == 0


def test_thread_ops_parked_behind_a_split_drain_land_on_the_owning_slot(
    region, workload, tmp_path
):
    """Thread twin of the test above for ops *admitted* before the drain:
    creates and books waiting for the turn when slot 0 is retired never
    start on the old engine.  Each bounces to its own caller, which waits
    out the split and lands on the slot that owns its source cluster or
    ride after the swap — nothing is held for a successor."""
    requests = list(workload)
    with Fleet("thread", region, None).open(tmp_path) as router:
        probes = []
        for request in requests[:80]:
            if router.shard_map.shard_of_point(request.source) != 0:
                continue
            ride = router.create(request.source, request.destination,
                                 request.window_start_s, 3, None)
            probes.extend(
                (request, match) for match in router.search(request)
                if match.ride_id == ride.ride_id
            )
        sources = [
            r for r in requests[200:320]
            if router.shard_map.shard_of_point(r.source) == 0
        ]
        assert len(probes) >= 5 and len(sources) >= 10
        worker = router.shards[0].worker
        ran_before = worker.stats_snapshot()["completed"]
        inside, release = threading.Event(), threading.Event()
        created, booked, errors, new_slot = [], [], [], []

        def hold():
            inside.set()
            assert release.wait(timeout=30)

        def create(request):
            try:
                ride = router.create(request.source, request.destination,
                                     request.window_start_s, 2, None)
                created.append((request, ride.ride_id))
            except XARError as exc:
                errors.append(exc)

        def book(request, match):
            try:
                booked.append(router.book(request, match))
            except XARError:
                pass  # a legitimately unbookable match, not a routing bug

        parked = [
            threading.Thread(target=create, args=(r,)) for r in sources[:12]
        ] + [
            threading.Thread(target=book, args=probe) for probe in probes[:12]
        ]
        holder = threading.Thread(target=worker.call, args=("admin", hold))
        splitter = threading.Thread(
            target=lambda: new_slot.append(router.split_shard(0)))
        try:
            holder.start()
            assert inside.wait(timeout=5)
            for thread in parked:
                thread.start()
            deadline = time.monotonic() + 10.0
            while worker.in_flight < 1 + len(parked):
                assert time.monotonic() < deadline, "ops were never admitted"
                time.sleep(0.005)
            splitter.start()
            deadline = time.monotonic() + 10.0
            while not worker.crashed:  # the drain has retired slot 0
                assert time.monotonic() < deadline, "slot 0 never drained"
                time.sleep(0.005)
        finally:
            release.set()
        for thread in [holder, splitter, *parked]:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors, errors
        assert created and booked and new_slot
        # Only the holder ran on the old engine after the ops were parked.
        assert worker.stats_snapshot()["completed"] == {
            **ran_before, "admin": 1}

        homes = set()
        for request, ride_id in created:
            home = router.shard_map.shard_of_point(request.source)
            homes.add(home)
            assert router.shard_of_ride(ride_id) == home
            assert Fleet.holds(router, home, ride_id)
        assert new_slot[0] in homes, "no parked create was carved right"
        for record in booked:
            home = router.shard_of_ride(record.ride_id)
            assert Fleet.holds(router, home, record.ride_id)
            assert (record.request_id, record.ride_id) in ledger_pairs(router)
            assert record.request_id in router.find_ride(
                record.ride_id
            ).passengers
        assert router.audit()["violations"] == 0


def test_concurrent_ops_during_split_lose_nothing(fleet, workload, tmp_path):
    """Satellite stress: book/cancel/search hammer the service while a slot
    splits mid-stream.  No acknowledged op may be lost, and both the live
    sweep and the offline WAL replay must balance."""
    requests = list(workload)
    with fleet.open(tmp_path, max_shards=8) as router:
        seed_supply(router, requests, n=60)
        acked_rides = []
        acked_bookings = []
        errors = []
        lock = threading.Lock()
        start = threading.Barrier(5)

        def driver(worker_id):
            slab = requests[80 + worker_id * 60:80 + (worker_id + 1) * 60]
            start.wait()
            for request in slab:
                try:
                    matches = router.search(request)
                except XARError as exc:
                    with lock:
                        errors.append(type(exc).__name__)
                    continue
                done = False
                for match in matches:
                    try:
                        record = router.book(request, match)
                    except XARError:
                        continue
                    with lock:
                        acked_bookings.append(
                            (record.request_id, record.ride_id)
                        )
                    done = True
                    break
                if not done:
                    try:
                        ride = router.create(
                            request.source, request.destination,
                            request.window_start_s, 2, None,
                        )
                        with lock:
                            acked_rides.append((request, ride.ride_id))
                    except XARError as exc:
                        with lock:
                            errors.append(type(exc).__name__)

        threads = [
            threading.Thread(target=driver, args=(worker_id,))
            for worker_id in range(4)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        first = router.split_shard(0)
        second = router.split_shard(1)
        for thread in threads:
            thread.join()

        assert first == 2 and second == 3
        assert router.shard_map.epoch == 2
        assert acked_rides and acked_bookings

        # Live sweep: every acknowledged op is present, routed, and held by
        # the slot that owns it under the final topology.
        final_pairs = ledger_pairs(router)
        for request, ride_id in acked_rides:
            home = router.shard_of_ride(ride_id)
            assert home == router.shard_map.shard_of_point(request.source)
            assert fleet.holds(router, home, ride_id), (
                f"acked ride {ride_id} lost"
            )
        for pair in acked_bookings:
            assert pair in final_pairs, f"acked booking {pair} lost"
        assert router.audit()["violations"] == 0

    # Offline proof: replay the manifest-named WALs from scratch and the
    # same ledger must come back.
    manifest = read_topology(topology_path(str(tmp_path)))
    assert manifest is not None and manifest["epoch"] == 2
    replayed_pairs = set()
    replayed_rides = set()
    for entry in manifest["slots"]:
        if not entry.get("active"):
            continue
        engine = recover_engine(
            fleet.region,
            os.path.join(str(tmp_path), entry["wal"]),
            os.path.join(str(tmp_path), entry["ckpt"]),
        ).engine
        replayed_pairs |= {
            (r.request_id, r.ride_id) for r in engine.bookings
        }
        replayed_rides |= set(engine.rides) | set(engine.completed_rides)
    for _request, ride_id in acked_rides:
        assert ride_id in replayed_rides
    for pair in acked_bookings:
        assert pair in replayed_pairs


# ----------------------------------------------------------------------
# Controller (policy) — transport-independent, exercised on thread shards
# ----------------------------------------------------------------------
def test_controller_splits_under_pressure(region, saved_region, workload,
                                          tmp_path):
    from .conftest import Fleet

    requests = list(workload)
    with Fleet("thread", region, saved_region).open(tmp_path) as router:
        seed_supply(router, requests, n=20)
        controller = ReshardController(
            router,
            ReshardConfig(
                max_shards=6, min_interval_ops=10, split_pressure=1.3,
                merge_enabled=False,
            ),
        )
        # Slam one slot: creates route by source point, so every request
        # whose source sits in slot 0 lands on the same worker.
        hot = [
            r for r in requests
            if router.shard_map.shard_of_point(r.source) == 0
        ]
        assert len(hot) >= 100

        def slam(batch):
            for request in batch:
                try:
                    router.create(
                        request.source, request.destination,
                        request.window_start_s, 2, None,
                    )
                except XARError:
                    continue

        slam(hot[:80])
        action = None
        for round_index in range(4):
            action = controller.tick()
            if action is not None and action.action == "split":
                break
            slam(hot[80 + round_index * 20:100 + round_index * 20])
        assert action is not None and action.action == "split"
        assert router.shard_map.epoch >= 1
        status = controller.status()
        assert status["epoch"] == router.shard_map.epoch
        assert status["actions"]
        assert status["ratios"], "observe() must have exported ratios"
        assert router.audit()["violations"] == 0


def test_controller_merges_cold_neighbours_on_either_transport(
    fleet, workload, tmp_path
):
    """The controller no longer probes for ``merge_shards``: a cold
    adjacent pair is merged through the same machine on both transports."""
    with fleet.open(tmp_path) as router:
        seed_supply(router, workload, n=30)
        router.split_shard(0)
        controller = ReshardController(
            router,
            ReshardConfig(max_shards=6, min_interval_ops=1,
                          split_pressure=1e9, merge_pressure=1e9),
        )
        seed_supply(router, list(workload)[30:], n=10)  # ops since boot
        action = controller.tick()
        assert action is not None and action.action == "merge", action
        assert len(router.active_slot_ids()) == 2
        assert router.audit()["violations"] == 0
