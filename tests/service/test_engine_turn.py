"""The interpreter's turn: one engine op at a time, on every shard.

``ShardWorker`` takes the process-wide ``ENGINE_TURN`` around every job it
runs, read or mutation, on the caller's thread — after admission and before
the service clock starts.  While a thread transport is open, every thread that
takes the turn runs on one CPU.  These tests pin what that must and must
not change.
"""

from __future__ import annotations

import errno
import os
import queue
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.durability import DurabilityConfig
from repro.obs import MetricsRegistry
from repro.service import ProcRouter, ShardRouter, ShardWorker
from repro.service.shard import ENGINE_TURN

from .proc.conftest import fast_config

JOIN_S = 30.0


def _join(threads):
    for thread in threads:
        thread.join(timeout=JOIN_S)
        assert not thread.is_alive()


class _Probe:
    """Wraps shard adapters (mutations) and engines (searches: a search of
    several shards is one engine call); sees how many ops execute at once,
    process-wide, and the order mutations reach each shard's engine."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.ops = 0
        self.order = {}

    def wrap(self, slot, inner):
        self.order[slot] = []
        return _Probed(self, slot, inner)

    def around(self, fn):
        def probed(*args, **kwargs):
            self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return probed

    def enter(self):
        with self._lock:
            self.active += 1
            self.ops += 1
            self.peak = max(self.peak, self.active)

    def leave(self):
        with self._lock:
            self.active -= 1


class _Probed:
    def __init__(self, probe, slot, inner):
        self._probe, self._slot, self._inner = probe, slot, inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _run(self, fn):
        self._probe.enter()
        try:
            return fn()
        finally:
            self._probe.leave()

    def create(self, source, destination, depart_s, **options):
        self._probe.order[self._slot].append(depart_s)
        return self._run(lambda: self._inner.create(
            source, destination, depart_s, **options))

    def track_all(self, now_s):
        return self._run(lambda: self._inner.track_all(now_s))


def _supply(city, n):
    nodes = list(city.nodes())
    return [(city.position(nodes[(7 * i) % len(nodes)]),
             city.position(nodes[(7 * i + 211) % len(nodes)]),
             float(i)) for i in range(n)]


def _ride_ids(service):
    return sorted(ride.ride_id for ride in service.active_rides())


def _answers(service, requests):
    return [[(m.ride_id, m.detour_m) for m in service.search(request)]
            for request in requests]


def test_one_op_at_a_time_fifo_per_shard_and_sequential_answers(
    region, city, workload
):
    supply = _supply(city, 60)
    requests = workload[:80]

    # The sequential run: one thread, same ops.
    with ShardRouter(region, 2, seed=11) as reference:
        for source, destination, depart_s in supply:
            reference.create(source, destination, depart_s)
        expected_rides = _ride_ids(reference)
        expected_answers = _answers(reference, requests)

    probe = _Probe()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ShardRouter(region, 2, seed=11) as service:
            for shard in service.shards:
                shard.adapter = probe.wrap(shard.shard_id, shard.adapter)
                shard.engine.search = probe.around(shard.engine.search)

            # Phase 1: one submitter per shard issues its creates (in list
            # order) while two readers fan searches out over both shards.
            by_slot = {0: [], 1: []}
            for ride in supply:
                by_slot[service.table.slot_of_point(ride[0])].append(ride)
            done = threading.Event()

            def submit_all(slot):
                shard = service.shards[slot]
                futures = [
                    shard.worker.submit(
                        "create",
                        lambda ride=ride: shard.adapter.create(*ride))
                    for ride in by_slot[slot]
                ]
                for future in futures:
                    future.result(timeout=JOIN_S)

            def read_until_done():
                while not done.is_set():
                    for request in requests[:10]:
                        service.search(request)

            submitters = [threading.Thread(target=submit_all, args=(slot,))
                          for slot in by_slot]
            readers = [threading.Thread(target=read_until_done)
                       for _ in range(2)]
            for thread in submitters + readers:
                thread.start()
            _join(submitters)
            done.set()
            _join(readers)
            for slot, rides in by_slot.items():
                assert probe.order[slot] == [ride[2] for ride in rides]
            assert _ride_ids(service) == expected_rides

            # Phase 2: four clients search the now-static supply.
            answers = [None] * 4

            def client(index):
                answers[index] = _answers(service, requests[index::4])

            clients = [threading.Thread(target=client, args=(index,))
                       for index in range(4)]
            for thread in clients:
                thread.start()
            _join(clients)
            for index in range(4):
                assert answers[index] == expected_answers[index::4]
    finally:
        sys.setswitchinterval(old_interval)
    assert probe.ops > 200
    assert probe.peak == 1


def _histogram_sum(metrics, name, **labels):
    return sum(child.sum for child_labels, child in metrics.get(name).collect()
               if all(child_labels.get(k) == v for k, v in labels.items()))


def test_turn_wait_is_queue_wait_not_service_time():
    metrics = MetricsRegistry()
    holder = ShardWorker(0, None, queue_depth=4, metrics=metrics)
    waiter = ShardWorker(1, None, queue_depth=4, metrics=metrics)
    inside = threading.Event()
    release = threading.Event()
    held = []
    hold = threading.Thread(target=lambda: held.append(holder.submit(
        "hold", lambda: inside.set() or release.wait(5))))
    try:
        hold.start()
        assert inside.wait(timeout=5)  # shard 0's job has the turn
        reader = threading.Thread(
            target=waiter.execute_inline, args=("search", lambda: None))
        reader.start()
        time.sleep(0.1)  # shard 1's read waits for the turn this long
        assert reader.is_alive()
        release.set()
        _join([reader, hold])
        assert held[0].result(timeout=0) is True
    finally:
        release.set()
        holder.close()
        waiter.close()
    assert _histogram_sum(
        metrics, "xar_shard_queue_wait_seconds", shard="1") >= 0.09
    assert _histogram_sum(
        metrics, "xar_shard_service_seconds", shard="1", op="search") < 0.05


def test_reentrant_acquisition_raises_instead_of_deadlocking():
    a = ShardWorker(0, None, queue_depth=4)
    b = ShardWorker(1, None, queue_depth=4)
    try:
        with pytest.raises(RuntimeError, match="already holds"):
            a.execute_inline(
                "outer", lambda: b.execute_inline("inner", lambda: None))
        with pytest.raises(RuntimeError, match="already holds"):
            a.call("outer", lambda: b.execute_inline("inner", lambda: None))
        # Both failures gave the turn back.
        assert b.execute_inline("search", lambda: 1) == 1
        assert a.call("op", lambda: 2) == 2
    finally:
        a.close()
        b.close()


def test_a_job_that_raises_releases_the_turn(region, city, tmp_path):
    def boom():
        raise ValueError("kaput")

    with ShardRouter(
        region, 2, seed=11,
        durability=DurabilityConfig(directory=str(tmp_path), fsync_every=8),
    ) as service:
        worker = service.shards[0].worker
        with pytest.raises(ValueError):
            worker.execute_inline("search", boom)
        with pytest.raises(ValueError):
            worker.call("op", boom)
        assert not ENGINE_TURN._lock.locked()
        # A worker that dies mid-job (WorkerCrashError -> failover) too.
        service.crash_shard(0)
        assert service.shards[0].worker.crashed
        assert not ENGINE_TURN._lock.locked()
        for source, destination, depart_s in _supply(city, 6):
            service.create(source, destination, depart_s)  # heals shard 0
        assert service.metrics.get("xar_failovers_total").labels(
            shard="0").value == 1
        assert len(service.active_rides()) == 6


# ----------------------------------------------------------------------
# CPU placement: the turn binds the threads that take it
# ----------------------------------------------------------------------
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least two allowed CPUs",
)


def _mask():
    return frozenset(os.sched_getaffinity(0))


#: The mask this process runs under, read before any test took the turn:
#: a binding an earlier test left behind shows up as a difference.
UNBOUND = _mask() if hasattr(os, "sched_getaffinity") else None


class _Clients:
    """Long-lived client threads: ``run(fn)`` calls ``fn`` once on each and
    returns what each returned, in thread order."""

    def __init__(self, n):
        self._inboxes = [queue.Queue() for _ in range(n)]
        self._threads = [
            threading.Thread(target=self._serve, args=(inbox,), daemon=True)
            for inbox in self._inboxes
        ]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def _serve(inbox):
        while True:
            fn, future = inbox.get()
            if fn is None:
                return
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - relayed
                future.set_exception(exc)

    def run(self, fn):
        futures = []
        for index, inbox in enumerate(self._inboxes):
            future = Future()
            inbox.put((lambda index=index: fn(index), future))
            futures.append(future)
        return [future.result(timeout=JOIN_S) for future in futures]

    def close(self):
        for inbox in self._inboxes:
            inbox.put((None, None))
        _join(self._threads)


@pytest.fixture
def clients():
    pool = _Clients(2)
    yield pool
    pool.close()


def _durable_router(region, directory):
    return ShardRouter(region, 2, seed=11, durability=DurabilityConfig(
        directory=str(directory), fsync_every=8))


def _fill(service, supply):
    return [service.create(*ride).ride_id for ride in supply]


@needs_affinity
def test_every_thread_that_takes_the_turn_shares_one_cpu(
    region, city, workload, clients
):
    assert _mask() == UNBOUND
    with ShardRouter(region, 2, seed=11) as service:
        supply = _supply(city, 40)
        clients.run(lambda i: _fill(service, supply[i::2]))
        clients.run(lambda i: _answers(service, workload[i:40:2]))
        assert clients.run(lambda i: _mask()) == [
            frozenset({min(UNBOUND)})] * 2
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("xar-shard")]  # all on clients
        assert _mask() == UNBOUND  # never took the turn itself


@needs_affinity
@pytest.mark.parametrize("teardown", ["close", "abandon"])
def test_teardown_restores_every_bound_thread_and_a_second_router_rebinds(
    region, city, workload, clients, tmp_path, teardown
):
    before = clients.run(lambda i: _mask())
    assert before == [UNBOUND] * 2
    one_cpu = frozenset({min(UNBOUND)})
    service = _durable_router(region, tmp_path / "first")
    try:
        _fill(service, _supply(city, 20))
        clients.run(lambda i: _answers(service, workload[i:20:2]))
        assert clients.run(lambda i: _mask()) == [one_cpu] * 2
    finally:
        getattr(service, teardown)()
    assert clients.run(lambda i: _mask()) == before

    with _durable_router(region, tmp_path / "second") as again:
        _fill(again, _supply(city, 20))
        clients.run(lambda i: _answers(again, workload[i:20:2]))
        assert clients.run(lambda i: _mask()) == [one_cpu] * 2
    assert clients.run(lambda i: _mask()) == before


@needs_affinity
def test_binding_that_fails_changes_no_answer_and_binds_nothing(
    region, city, workload, clients, monkeypatch
):
    supply = _supply(city, 40)

    def run():
        with ShardRouter(region, 2, seed=11) as service:
            created = clients.run(
                lambda i: _fill(service, supply) if i == 0 else None)
            answers = clients.run(
                lambda i: _answers(service, workload[i:60:2]))
            masks = clients.run(lambda i: _mask())
        return created, answers, masks

    expected_created, expected_answers, _ = run()
    attempts = []

    def refuse(pid, mask):
        attempts.append(pid)
        raise OSError(errno.EPERM, "affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    created, answers, masks = run()
    assert attempts  # binding was tried, refused, and every op ran anyway
    assert created == expected_created
    assert answers == expected_answers
    assert masks == [UNBOUND] * 2


@needs_affinity
def test_placements_opened_and_closed_from_many_threads_bind_and_restore():
    """More threads than CPUs open and close placements around a turn, with
    a short switch interval: every turn taken inside a placement runs on the
    one CPU, and once the last placement is closed every thread is unbound."""
    one_cpu = frozenset({min(UNBOUND)})
    n_threads, rounds = 6, 40
    all_closed = threading.Barrier(n_threads + 1)
    inside, after = [], []

    def churn():
        for _ in range(rounds):
            ENGINE_TURN.place()
            try:
                with ENGINE_TURN:
                    inside.append(_mask())
            finally:
                ENGINE_TURN.unplace()
        all_closed.wait(timeout=JOIN_S)
        after.append(_mask())

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        all_closed.wait(timeout=JOIN_S)
        _join(threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert inside == [one_cpu] * (n_threads * rounds)
    assert after == [UNBOUND] * n_threads
    assert _mask() == UNBOUND


@needs_affinity
def test_a_bare_worker_binds_nothing():
    worker = ShardWorker(0, None, queue_depth=4)
    try:
        assert worker.call("op", _mask) == UNBOUND
        assert worker.execute_inline("search", _mask) == UNBOUND
    finally:
        worker.close()


@needs_affinity
def test_a_proc_child_launched_from_a_bound_thread_is_placed_on_its_slot(
    region, saved_region, workload, tmp_path
):
    """Child *k* runs on ``sorted(UNBOUND)[k % n]``: placed from the
    launcher's unbound mask, not the one CPU the turn bound it to."""
    cpus = sorted(UNBOUND)
    with ShardRouter(region, 2, seed=11) as service:
        service.search(workload[0])  # this thread takes the turn: bound
        assert _mask() == {min(UNBOUND)}
        procs = ProcRouter(region, fast_config(
            str(tmp_path / "run"), saved_region, n_shards=2))
        try:
            assert procs.wait_all_live(30.0)
            for slot, child in enumerate(procs.supervisor.shards):
                assert os.sched_getaffinity(child.process.pid) == {
                    cpus[slot % len(cpus)]}
            assert _mask() == {min(UNBOUND)}  # still bound after the launch
        finally:
            procs.close()
    assert _mask() == UNBOUND


@needs_affinity
def test_an_inherited_binding_places_a_child_on_its_slot_after_close(
    region, workload
):
    """A thread started from a bound thread inherits the one-CPU mask and
    keeps it after the close; a child it launches is still placed from the
    unbound mask — slot 1 on the second CPU, not on the old turn CPU."""
    one_cpu = frozenset({min(UNBOUND)})
    with ShardRouter(region, 2, seed=11) as service:
        service.search(workload[0])  # this thread takes the turn: bound
        heir = _Clients(1)  # started from the bound thread: inherits it

    def launch(_index):
        with ENGINE_TURN.slot_cpu(1):
            child = subprocess.Popen(
                [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            return os.sched_getaffinity(child.pid), _mask()
        finally:
            child.kill()
            child.wait(timeout=JOIN_S)

    try:
        assert _mask() == UNBOUND
        # Never took the turn, so the close did not restore it ...
        assert heir.run(lambda i: _mask()) == [one_cpu]
        # ... but what it launches is placed off that CPU, and it keeps
        # its mask.
        (placed, kept), = heir.run(launch)
        assert placed == {sorted(UNBOUND)[1]} and placed != one_cpu
        assert kept == one_cpu
    finally:
        heir.close()
