"""The shard subprocess's own loops, run in-process on a socketpair."""

from __future__ import annotations

import dataclasses
import os
import socket
import sys
import threading

from repro.service.ops import OPS
from repro.service.proc import ProcRouter
from repro.service.proc.rpc import read_frame
from repro.service.proc.worker import ShardProcess
from repro.service.stack import ShardSpec, StackConfig

from .conftest import await_until, fast_config, make_request, seed_fleet


def _child(saved_region_dir, tmp_path, **config):
    return ShardProcess({
        "region_dir": saved_region_dir,
        "spec": dataclasses.asdict(ShardSpec(
            0, 1, 1, str(tmp_path / "shard0.wal"),
            str(tmp_path / "shard0.ckpt"))),
        "stack": dataclasses.asdict(StackConfig()),
        **config,
    })


def test_heartbeat_depth_is_the_number_of_ops_in_flight(
    saved_region_dir, tmp_path
):
    """A child serves every op inline, so nothing ever waits in its queue:
    the heartbeat's ``depth`` counts the ops admitted and not finished —
    the one holding the turn and the one waiting for it."""
    child = _child(saved_region_dir, tmp_path, generation=3)
    worker = child.stack.worker
    parent_end, child_end = socket.socketpair()
    parent_end.settimeout(5.0)
    running = threading.Event()
    release = threading.Event()
    beats = threading.Thread(
        target=child.heartbeat_loop, args=(child_end, 0.01), daemon=True)

    def block():
        running.set()
        release.wait(5)

    ops = [
        threading.Thread(target=worker.execute_inline, args=("admin", block)),
        threading.Thread(target=worker.execute_inline,
                         args=("admin", lambda: None)),
    ]
    try:
        ops[0].start()
        assert running.wait(5)  # holds the turn
        ops[1].start()  # admitted, waits for the turn
        await_until(lambda: worker.in_flight == 2, 5.0)
        beats.start()
        frame = read_frame(parent_end)
        assert frame["kind"] == "hb" and frame["generation"] == 3
        assert frame["depth"] == 2
        release.set()
        for thread in ops:
            thread.join(timeout=5)
            assert not thread.is_alive()
        for _beat in range(200):
            if read_frame(parent_end)["depth"] == 0:
                break
        else:
            raise AssertionError("depth never dropped with no op in flight")
        assert worker.stats_snapshot()["completed"] == {"admin": 2}
    finally:
        release.set()
        child._shutdown.set()
        beats.join(timeout=5)
        parent_end.close()
        worker.close()
        child.stack.release_wal(sync=True)


def _rpc(child, op, *args):
    """One op through the child's dispatch, decoded as the parent would."""
    spec = OPS[op]
    response = child.dispatch({"id": 1, "op": op,
                               "args": spec.args.encode(args)})
    assert response["ok"], response
    return spec.decode_result(response["result"], child.stack.engine.region)


def test_a_child_serves_every_op_on_the_calling_thread(
    saved_region_dir, tmp_path, small_city, small_region
):
    """Mutations, ticks and admin reads run inline like searches: no op
    is handed to another thread and no ``xar-shard-*`` thread is started,
    while the shard's stats and ``xar_shard_*`` metrics are kept."""
    before = {thread.ident for thread in threading.enumerate()}
    child = _child(saved_region_dir, tmp_path)
    worker = child.stack.worker
    try:
        nodes = list(small_city.nodes())
        rides = [
            _rpc(child, "create", small_city.position(nodes[i]),
                 small_city.position(nodes[-1 - i]), 60.0 * i, 3, None, None)
            for i in range(6)
        ]
        booked = 0
        for i, ride in enumerate(rides):
            request = make_request(small_region, 50_000 + i,
                                   ride.source_point, ride.destination_point)
            matches = _rpc(child, "search", request, None)
            if matches:
                _rpc(child, "book", request, matches[0])
                booked += 1
        assert booked
        _rpc(child, "track", 30.0)
        assert _rpc(child, "audit", False) == (0, 0)
        assert len(_rpc(child, "active_rides")) == len(rides)
        assert len(_rpc(child, "bookings")) == booked
        _rpc(child, "index_stats")

        started = [thread.name for thread in threading.enumerate()
                   if thread.ident not in before]
        assert not [name for name in started if name.startswith("xar-shard")]
        assert worker.in_flight == 0
        completed = worker.stats_snapshot()["completed"]
        assert completed["create"] == len(rides)
        assert completed["book"] == booked
        assert completed["track"] == 1
        ops = child.metrics.get("xar_shard_ops_total")
        assert ops.labels(shard="0", op="book",
                          outcome="completed").value == booked
    finally:
        worker.close()
        child.stack.release_wal(sync=True)


_SLOW_CHILD = """\
import os, sys, time
from repro.service.proc import worker

_init = worker.ShardProcess.__init__


def _slow_first_book(self, config):
    _init(self, config)
    engine = self.stack.engine
    marker = os.path.join(os.path.dirname(config["socket_path"]),
                          f"slow-book.{self.shard_id}")

    def hook(point):
        if point == "book:post-snapshot":  # inside the turn, WAL appended
            engine.fault_hook = None
            open(marker, "w").close()
            time.sleep(1.0)

    engine.fault_hook = hook


worker.ShardProcess.__init__ = _slow_first_book
sys.exit(worker.main([sys.argv[-1]]))
"""


def test_sigterm_during_a_slow_mutation_answers_it_syncs_and_exits_0(
    small_region, small_city, saved_region_dir, tmp_path, monkeypatch
):
    """The drain stops admitting, waits for the booking that holds the turn,
    answers it, syncs the WAL and exits 0; the next life has the booking."""
    script = tmp_path / "slow_child.py"
    script.write_text(_SLOW_CHILD)
    launcher = tmp_path / "python-slow-book"
    launcher.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{script}" "$@"\n')
    launcher.chmod(0o755)
    run_dir = tmp_path / "run"
    config = fast_config(str(run_dir), saved_region_dir)

    monkeypatch.setattr(sys, "executable", str(launcher))
    service = ProcRouter(small_region, config)
    monkeypatch.undo()
    try:
        assert service.wait_all_live(30.0)
        seed_fleet(service, small_city, n_books=0)
        nodes = list(small_city.nodes())
        for i in range(len(nodes)):
            request = make_request(small_region, 60_000 + i,
                                   small_city.position(nodes[i]),
                                   small_city.position(nodes[-1 - i]))
            matches = service.search(request)
            if matches:
                break
        assert matches
        answer = []
        booking = threading.Thread(
            target=lambda: answer.append(service.book(request, matches[0])))
        booking.start()
        await_until(lambda: any(
            name.startswith("slow-book.") for name in os.listdir(run_dir)),
            5.0, "the booking to reach its slow hook")
        processes = [shard.process for shard in service.supervisor.shards]
    finally:
        service.close()  # SIGTERM: the drain under test
    booking.join(timeout=10)
    assert not booking.is_alive()
    assert [record.request_id for record in answer] == [request.request_id]
    assert [process.returncode for process in processes] == [0, 0]

    with ProcRouter(small_region, config) as second:
        assert second.wait_all_live(30.0)
        assert (request.request_id, matches[0].ride_id) in {
            (b.request_id, b.ride_id) for b in second.bookings()}
        assert second.audit()["violations"] == 0


def test_path_trees_are_built_before_the_child_connects_back(
    saved_region_dir, tmp_path
):
    child = ShardProcess({
        "region_dir": saved_region_dir,
        "spec": dataclasses.asdict(ShardSpec(
            0, 1, 1, str(tmp_path / "shard0.wal"),
            str(tmp_path / "shard0.ckpt"))),
        "stack": dataclasses.asdict(StackConfig()),
    })
    try:
        assert child.stack.engine.region._path_trees is not None
    finally:
        child.stack.worker.close()
        child.stack.release_wal(sync=True)
