"""The shard subprocess's own loops, run in-process on a socketpair."""

from __future__ import annotations

import dataclasses
import socket
import threading

from repro.service.proc.rpc import read_frame
from repro.service.proc.worker import ShardProcess
from repro.service.stack import ShardSpec, StackConfig


def test_heartbeat_reports_current_queue_depth_not_the_lifetime_peak(
    saved_region_dir, tmp_path
):
    child = ShardProcess({
        "generation": 3,
        "region_dir": saved_region_dir,
        "spec": dataclasses.asdict(ShardSpec(
            0, 1, 1, str(tmp_path / "shard0.wal"),
            str(tmp_path / "shard0.ckpt"))),
        "stack": dataclasses.asdict(StackConfig()),
    })
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

    try:
        blocker = worker.submit("admin", block)
        # The worker must have taken the blocker off the queue before the
        # two queued jobs are counted; otherwise the depth reads 3.
        assert running.wait(5)
        queued = [worker.submit("admin", lambda: None) for _ in range(2)]
        beats.start()
        frame = read_frame(parent_end)
        assert frame["kind"] == "hb" and frame["generation"] == 3
        assert frame["depth"] == 2
        release.set()
        for future in [blocker, *queued]:
            future.result(timeout=5)
        for _beat in range(200):
            if read_frame(parent_end)["depth"] == 0:
                break
        else:
            raise AssertionError("depth never dropped with the queue empty")
        assert worker.stats.queue_peak >= 2
    finally:
        release.set()
        child._shutdown.set()
        beats.join(timeout=5)
        parent_end.close()
        worker.close()
        child.stack.release_wal(sync=True)


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
