"""The two halves of a shard call, and the fan-outs built from them.

``ProcShard.rpc`` is ``_receive(_send(...))`` in a retry loop; a fan-out
(``start``) sends to every slot before it waits for any.  The unit tests
here put a scripted peer on the other end of a socketpair — no subprocess —
so every channel outcome can be forced; the chaos tests at the bottom use
real children.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    RpcProtocolError,
    RpcTransportError,
    UnknownRideError,
)
from repro.obs import MetricsRegistry
from repro.service.proc import ProcRouter
from repro.service.proc.rpc import error_response, read_frame, write_frame
from repro.service.proc.supervisor import (
    LIVE,
    ProcShard,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.service.stack import Rerouted

from .conftest import await_until, fast_config, make_request, seed_fleet

JOIN_S = 30.0


class _Alive:
    """A process handle that never exits."""

    def poll(self):
        return None


class _Fleet(ShardSupervisor):
    """A supervisor whose children are this test's end of socketpairs: no
    processes, no monitor — only the slot table the data path reads."""

    def __init__(self, n_shards=1, channels=1):
        self.search_deadline_s = 5.0
        self.shards, self.peers = [], []
        self._hb = socket.socketpair()  # silent: nothing here reads it
        for slot in range(n_shards):
            shard = ProcShard(slot, SupervisorConfig(), self)
            pairs = [socket.socketpair() for _ in range(channels)]
            shard.adopt(_Alive(), 1, [ours for ours, _ in pairs],
                        self._hb[0], None)
            self.shards.append(shard)
            self.peers.append([theirs for _, theirs in pairs])

    def _observe_state(self, shard):
        pass

    def _observe_rpc(self, shard_id, op, elapsed_s):
        pass

    def close(self):
        for shard, peers in zip(self.shards, self.peers):
            shard.discard_channels()
            for peer in peers:
                peer.close()
        for sock in self._hb:
            sock.close()


@pytest.fixture
def one():
    fleet = _Fleet()
    yield fleet.shards[0], fleet.peers[0][0]
    fleet.close()


def _send(shard, op="ping", *, deadline_s=5.0, guard=None):
    now = time.monotonic()
    return shard._send(op, None, now + deadline_s, deadline_s, None,
                       now + deadline_s, False, guard)


def _closed(sock):
    return sock.fileno() == -1


class TestHalves:
    def test_success_returns_the_channel_to_the_pool(self, one):
        shard, peer = one
        sent = _send(shard)
        assert shard._conns.qsize() == 0  # the call holds the only channel
        request = read_frame(peer)
        assert request["op"] == "ping" and 0 < request["deadline_ms"] <= 5000
        write_frame(peer, {"id": request["id"], "ok": True, "result": {"x": 1}})
        assert shard._receive(sent) == {"x": 1}
        assert shard._conns.qsize() == 1 and not _closed(sent.sock)

    def test_remote_error_returns_the_channel_to_the_pool(self, one):
        shard, peer = one
        sent = _send(shard)
        write_frame(peer, error_response(read_frame(peer)["id"],
                                         UnknownRideError(5)))
        with pytest.raises(UnknownRideError):
            shard._receive(sent)
        assert shard._conns.qsize() == 1 and not _closed(sent.sock)

    def test_receive_transport_error_closes_the_channel(self, one):
        shard, peer = one
        sent = _send(shard)
        read_frame(peer)
        peer.close()  # the child died with the request in hand
        with pytest.raises(RpcTransportError) as err:
            shard._receive(sent)
        assert err.value.request_sent
        assert shard._conns.qsize() == 0 and _closed(sent.sock)

    def test_receive_crc_error_closes_the_channel(self, one):
        shard, peer = one
        sent = _send(shard)
        read_frame(peer)
        peer.sendall(struct.pack("<II", 2, 12345) + b"{}")
        with pytest.raises(RpcProtocolError, match="CRC"):
            shard._receive(sent)
        assert shard._conns.qsize() == 0 and _closed(sent.sock)

    def test_response_id_mismatch_closes_the_channel(self, one):
        shard, peer = one
        sent = _send(shard)
        write_frame(peer, {"id": read_frame(peer)["id"] + 1, "ok": True,
                           "result": {}})
        with pytest.raises(RpcProtocolError, match="response id"):
            shard._receive(sent)
        assert shard._conns.qsize() == 0 and _closed(sent.sock)

    def test_send_transport_error_closes_the_channel_unsent(self, one):
        shard, peer = one
        channel = shard._conns.queue[0]
        peer.close()
        with pytest.raises(RpcTransportError) as err:
            _send(shard)
        assert not err.value.request_sent
        assert shard._conns.qsize() == 0 and _closed(channel)

    def test_send_past_its_deadline_keeps_the_channel(self, one):
        shard, peer = one
        with pytest.raises(DeadlineExceededError):
            _send(shard, deadline_s=0.0)
        assert shard._conns.qsize() == 1
        peer.setblocking(False)
        with pytest.raises(BlockingIOError):
            peer.recv(1)

    def test_guard_failure_raises_rerouted_with_nothing_on_the_wire(self, one):
        shard, peer = one
        with pytest.raises(Rerouted):
            shard.start("find_ride", {"ride_id": 1}, readonly=True,
                        guard=lambda: False)
        assert shard._conns.qsize() == 1
        peer.setblocking(False)
        with pytest.raises(BlockingIOError):
            peer.recv(1)

    def test_only_idempotent_calls_may_be_scattered(self, one):
        shard, _peer = one
        with pytest.raises(ValueError, match="idempotent"):
            shard.start("create", {})


def _serve(peer, handler):
    """A scripted child on ``peer``: answers every frame with ``handler``'s
    result until the channel closes."""
    def loop():
        try:
            while True:
                request = read_frame(peer)
                write_frame(peer, {"id": request["id"], "ok": True,
                                   "result": handler(request)})
        except (RpcTransportError, OSError):
            pass

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread


class TestFanOut:
    def test_a_lost_answer_is_reissued_through_rpc(self):
        fleet = _Fleet(channels=2)
        shard, (first, second) = fleet.shards[0], fleet.peers[0]
        reissued = []
        plain_rpc = shard.rpc
        shard.rpc = lambda op, args=None, **kw: (
            reissued.append((op, kw)) or plain_rpc(op, args, **kw))
        try:
            wait = shard.start("track", {"now_s": 9.0}, idem="track:9.0",
                               wait_live_s=0.0)
            assert read_frame(first)["idem"] == "track:9.0"
            first.close()  # the answer never comes
            _serve(second, lambda request: {"affected": 3,
                                            "idem": request["idem"]})
            assert wait() == {"affected": 3, "idem": "track:9.0"}
            assert [(op, kw["idem"]) for op, kw in reissued] == [
                ("track", "track:9.0")]
        finally:
            fleet.close()

    def test_both_children_are_inside_track_at_the_same_time(self):
        fleet = _Fleet(n_shards=2)
        together = threading.Barrier(2, timeout=5.0)

        def slow_sweep(request):
            assert request["op"] == "track"
            together.wait()  # breaks unless the other child is sweeping too
            return {"affected": 2}

        for peers in fleet.peers:
            _serve(peers[0], slow_sweep)
        try:
            sweeps = [fleet.track(slot, 30.0) for slot in (0, 1)]
            assert sum(sweep() for sweep in sweeps) == 4
        finally:
            fleet.close()

    def test_wide_search_is_scattered_and_width_one_is_a_plain_rpc(
        self, small_region, small_city
    ):
        fleet = _Fleet(n_shards=2)
        together = threading.Barrier(2, timeout=5.0)

        def scan(request):
            if request["args"]["k"] == 2:  # the wide search
                together.wait()
            return {"matches": []}

        for peers in fleet.peers:
            _serve(peers[0], scan)
        plain, taken = [], []
        for shard in fleet.shards:
            shard.rpc = (lambda rpc: lambda op, args=None, **kw: (
                plain.append(op) or rpc(op, args, **kw)))(shard.rpc)
            shard.start = (lambda slot, start: lambda *args, **kw: (
                taken.append(slot) or start(*args, **kw)))(
                    shard.shard_id, shard.start)
        request = make_request(small_region, 1, small_city.position(0),
                               small_city.position(10))
        try:
            # Asked for in descending order; channels are still taken in
            # ascending slot order.
            gathers = fleet.search_many([1, 0], request, 2)
            assert taken == [0, 1]
            assert [gather() for gather in gathers] == [[], []]
            assert plain == []
            (gather,) = fleet.search_many([1], request, 1)
            assert gather() == [] and plain == ["search"]
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# Real children
# ----------------------------------------------------------------------
@pytest.fixture
def wide_service(small_region, saved_region_dir, tmp_path):
    """Two children, every search consults both."""
    router = ProcRouter(
        small_region, fast_config(str(tmp_path / "run"), saved_region_dir),
        fanout="all", metrics=MetricsRegistry(),
    )
    assert router.wait_all_live(30.0)
    yield router
    router.close()


class TestChaos:
    def test_concurrent_fan_outs_on_two_channels_all_finish(
        self, wide_service, small_city, small_region
    ):
        seed_fleet(wide_service, small_city)
        request = make_request(small_region, 70_000, small_city.position(0),
                               small_city.position(10))
        expected = [m.ride_id for m in wide_service.search(request)]
        failures = []

        def client():
            try:
                for _ in range(25):
                    got = [m.ride_id for m in wide_service.search(request)]
                    assert got == expected
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_S)
            assert not thread.is_alive()
        assert failures == []
        assert wide_service.partial_searches == 0
        for shard in wide_service.supervisor.shards:
            assert shard._conns.qsize() == 2  # every channel came back

    def test_child_killed_between_send_and_receive(
        self, wide_service, small_city, small_region, monkeypatch
    ):
        """SIGSTOP a child so its answer cannot come, scatter, SIGKILL it,
        gather: the search serves from the other child, the tick is
        re-issued under its idempotency key, and neither waits for the
        restart."""
        seed_fleet(wide_service, small_city)
        supervisor = wide_service.supervisor
        victim = supervisor.shards[0]
        request = make_request(small_region, 70_001, small_city.position(0),
                               small_city.position(10))

        def kill_after(scatter):
            def wrapped(*args):
                process = victim.process
                os.kill(process.pid, signal.SIGSTOP)
                # SIGSTOP takes effect when a thread of the child next runs:
                # until the whole child has stopped, its connection thread
                # could still read the scattered frame and answer it.
                _pid, status = os.waitpid(process.pid, os.WUNTRACED)
                assert os.WIFSTOPPED(status)
                try:
                    out = scatter(*args)
                finally:
                    process.kill()
                process.wait(timeout=10)
                return out
            return wrapped

        monkeypatch.setattr(supervisor, "search_many",
                            kill_after(supervisor.search_many))
        started = time.monotonic()
        wide_service.search(request)  # served by shard 1 alone
        assert time.monotonic() - started < 3.0
        assert wide_service.partial_searches == 1
        monkeypatch.undo()
        await_until(lambda: victim.state == LIVE and victim.restarts == 1)

        reissued = []
        plain_rpc = victim.rpc
        monkeypatch.setattr(victim, "rpc", lambda op, args=None, **kw: (
            reissued.append((op, kw.get("idem"))) or plain_rpc(op, args, **kw)))
        track = supervisor.track
        monkeypatch.setattr(
            supervisor, "track",
            lambda slot, now_s: (kill_after(track) if slot == 0 else track)(
                slot, now_s))
        started = time.monotonic()
        wide_service.track_all(45.0)  # shard 0's part contributes 0
        assert time.monotonic() - started < 3.0
        assert reissued == [("track", "track:45.0")]
        ticks = wide_service.metrics.get("xar_router_track_ticks_total")
        assert ticks.labels(outcome="applied").value == 1
        monkeypatch.undo()
        await_until(lambda: victim.state == LIVE and victim.restarts == 2)
        assert wide_service.audit()["violations"] == 0
