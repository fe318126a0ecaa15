"""Supervision-tree behaviour: crash, hang, storm-quarantine, drain.

Every test here pays for real subprocesses, so assertions chain: one fleet
per test, several behaviours per fleet where that does not blur causes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.exceptions import ShardQuarantinedError
from repro.service.proc import ProcRouter
from repro.service.proc.supervisor import LIVE, QUARANTINED, ShardSupervisor

from .conftest import fast_config, seed_fleet


def _await(predicate, timeout_s=15.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


_LABEL_NAMES = {
    "xar_proc_failures_total": ("shard", "kind"),
    "xar_proc_restarts_total": ("shard",),
    "xar_proc_quarantines_total": ("shard",),
}


def _counter(service, name, **labels):
    family = service.metrics.counter(name, labels=_LABEL_NAMES[name])
    return family.labels(**labels).value


class TestLiveness:
    def test_fleet_boots_live_and_answers_pings(self, proc_service):
        assert proc_service.supervisor.states() == {0: LIVE, 1: LIVE}
        pids = set()
        for shard_id in range(proc_service.n_shards):
            result = proc_service.supervisor.rpc(shard_id, "ping",
                                                 readonly=True)
            assert result["pid"] != 0
            assert result["generation"] == 1
            pids.add(result["pid"])
        # Real process isolation: two shards, two distinct PIDs, and
        # neither is the parent.
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_sigkill_is_classified_as_a_crash_and_restarted(
        self, proc_service, small_city
    ):
        booked = seed_fleet(proc_service, small_city)
        assert booked > 0
        before = sorted(b.request_id for b in proc_service.bookings())

        victim = proc_service.supervisor.shards[0]
        pid = victim.process.pid
        proc_service.crash_shard(0)  # real SIGKILL
        _await(lambda: victim.state == LIVE and victim.process.pid != pid,
               what="shard 0 restart")

        assert victim.restarts == 1
        assert _counter(proc_service, "xar_proc_failures_total",
                        shard="0", kind="crash") >= 1
        assert _counter(proc_service, "xar_proc_restarts_total",
                        shard="0") == 1
        # The respawned child replayed its WAL: no acknowledged state lost.
        assert sorted(b.request_id for b in proc_service.bookings()) == before
        assert proc_service.audit()["violations"] == 0
        assert proc_service.last_recoveries[0]["replayed_ops"] > 0

    def test_heartbeat_silence_is_classified_as_a_hang(self, proc_service):
        victim = proc_service.supervisor.shards[1]
        pid = victim.process.pid
        # The child keeps its ops connections open but stops heartbeating:
        # alive-but-wedged, indistinguishable from dead to callers.
        proc_service.supervisor.rpc(1, "hang", readonly=True)
        _await(lambda: victim.state == LIVE and victim.process.pid != pid,
               what="hang detection + restart")
        assert _counter(proc_service, "xar_proc_failures_total",
                        shard="1", kind="hang") >= 1


class TestQuarantine:
    def test_restart_storm_quarantines_then_cooldown_probe_recovers(
        self, small_region, saved_region_dir, tmp_path
    ):
        config = fast_config(str(tmp_path / "run"), saved_region_dir,
                             max_restarts=1, quarantine_cooldown_s=1.0)
        with ProcRouter(small_region, config) as service:
            assert service.wait_all_live(30.0)
            shard = service.supervisor.shards[0]

            # Two consecutive failures with no stability window between
            # them exhausts max_restarts=1.
            service.crash_shard(0)
            _await(lambda: shard.state == LIVE and shard.restarts == 1,
                   what="first restart")
            service.crash_shard(0)
            _await(lambda: shard.state == QUARANTINED, what="quarantine")

            assert shard.quarantines == 1
            assert _counter(service, "xar_proc_quarantines_total",
                            shard="0") == 1
            # Requests fail fast while quarantined; the overload subclass
            # means fan-out searches degrade to partial instead of failing.
            with pytest.raises(ShardQuarantinedError):
                service.supervisor.rpc(0, "ping", readonly=True,
                                       wait_live_s=0.0)

            # After the cooldown a single probe restart is allowed.
            _await(lambda: shard.state == LIVE, timeout_s=30.0,
                   what="cooldown probe restart")
            result = service.supervisor.rpc(0, "ping", readonly=True)
            assert result["pid"] == shard.process.pid


class TestDrain:
    def test_close_drains_children_gracefully_and_state_survives(
        self, small_region, small_city, saved_region_dir, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        config = fast_config(run_dir, saved_region_dir)
        service = ProcRouter(small_region, config)
        assert service.wait_all_live(30.0)
        booked = seed_fleet(service, small_city)
        assert booked > 0
        bookings = sorted(b.request_id for b in service.bookings())
        rides = sorted(r.ride_id for r in service.active_rides())
        processes = [s.process for s in service.supervisor.shards]
        service.close()

        # SIGTERM drain, not SIGKILL: every child exited cleanly (0), which
        # means queued mutations finished and the WAL was fsynced.
        assert [p.returncode for p in processes] == [0, 0]

        with ProcRouter(small_region, fast_config(run_dir, saved_region_dir)
                        ) as second:
            assert second.wait_all_live(30.0)
            assert sorted(b.request_id for b in second.bookings()) == bookings
            assert sorted(r.ride_id for r in second.active_rides()) == rides
            assert second.audit()["violations"] == 0


def test_heartbeat_loop_returns_on_a_socket_closed_before_it_starts():
    """A generation can die between adopting its heartbeat socket and the
    heartbeat thread's first statement: the loop must end, not raise."""
    ours, theirs = socket.socketpair()
    ours.close()
    theirs.close()
    supervisor = SimpleNamespace(_closing=threading.Event())
    shard = SimpleNamespace(generation=1, last_heartbeat=0.0)
    assert ShardSupervisor._heartbeat_loop(supervisor, shard, 1, ours) is None
    assert shard.last_heartbeat == 0.0
