"""Gateway HTTP surface, admission control and drain.

The gateway fronts any EngineAdapter-shaped service, so these tests back it
with a cheap in-process thread router — gateway behaviour, not process
supervision, is under test here (the CI chaos smoke covers the full stack).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ShardOverloadError, UnknownRideError
from repro.service import Gateway, GatewayConfig, HttpServiceClient, ShardRouter
from repro.service.ops import OPS
from repro.service.proc.gateway import MAX_LINE_BYTES

from .conftest import await_until, make_request, seed_fleet


@pytest.fixture
def backend(small_region):
    router = ShardRouter(small_region, 2, seed=11)
    yield router
    router.close()


@pytest.fixture
def gateway(backend):
    gw = Gateway(backend, GatewayConfig(port=0, min_rtt_samples=5))
    url = gw.start_background()
    yield gw, url
    gw.shutdown()


@pytest.fixture
def client(gateway, small_region):
    _gw, url = gateway
    c = HttpServiceClient(url, small_region)
    yield c
    c.close()


def _shed_count(gw, reason):
    return gw.metrics.counter(
        "xar_gateway_shed_total", labels=("reason",)
    ).labels(reason=reason).value


class TestRoutes:
    def test_adapter_surface_end_to_end_over_http(self, client, small_city):
        assert client.healthz()["ok"] is True
        booked = seed_fleet(client, small_city)
        assert booked > 0
        assert client.active_rides()
        assert client.rollback_count() >= 0
        assert sum(client.index_stats().values()) > 0
        assert client.track_all(30.0) >= 0
        assert client.stats()["n_shards"] == 2

    def test_domain_errors_are_rebuilt_from_422_responses(
        self, client, small_city
    ):
        ride = client.create(small_city.position(0),
                             small_city.position(5), 0.0, 2, None)
        client.cancel(ride)
        with pytest.raises(UnknownRideError):
            client.cancel(ride)  # already gone: 422 + class name

    def test_shift_end_crosses_the_http_facade(
        self, backend, client, small_city
    ):
        trip = (small_city.position(0), small_city.position(5), 0.0)
        local = backend.create(*trip, seats=2, shift_end_s=900.0)
        remote = client.create(*trip, seats=2, shift_end_s=900.0)
        assert remote.shift_end_s == local.shift_end_s == 900.0
        # Not just echoed: the engine behind the gateway holds it.
        assert backend.find_ride(remote.ride_id).shift_end_s == 900.0
        assert client.create(*trip, seats=2).shift_end_s is None

    def test_metrics_endpoint_serves_prometheus_text(self, gateway, client):
        _gw, url = gateway
        client.healthz()
        with urllib.request.urlopen(f"{url}/metrics") as response:
            text = response.read().decode()
        assert "xar_gateway_requests_total" in text
        assert 'xar_gateway_shed_total{reason="deadline"}' in text

    def test_unknown_route_is_a_404(self, gateway):
        _gw, url = gateway
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/v1/nope")
        assert err.value.code == 404


class TestAdmissionControl:
    def test_draining_gateway_sheds_before_any_work(self, gateway, client):
        gw, _url = gateway
        gw.draining = True
        try:
            with pytest.raises(ShardOverloadError) as err:
                client.track_all(1.0)
            assert err.value.operation == "draining"
        finally:
            gw.draining = False
        assert _shed_count(gw, "draining") == 1

    def test_hopeless_deadline_is_shed_once_rtt_is_known(
        self, gateway, client, small_city, small_region
    ):
        gw, _url = gateway
        # Prime the RTT window past min_rtt_samples.
        for i in range(8):
            client.track_all(float(i + 1))
        request = make_request(small_region, 60_001, small_city.position(0),
                               small_city.position(10))
        payload = OPS["search"].args.encode((request, None))
        with pytest.raises(ShardOverloadError) as err:
            client._request("POST", "/v1/search", payload, deadline_ms=0.001)
        assert err.value.operation == "deadline"
        assert _shed_count(gw, "deadline") >= 1
        # The same search under a sane deadline is still served.
        client.search(request)


class _BlockedBackend:
    """A service whose ticks block until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def track_all(self, now_s):
        self.entered.set()
        assert self.release.wait(timeout=10)
        return 7


@pytest.fixture
def blocked(small_region):
    """A gateway with one in-flight slot, a tick stuck inside the backend,
    and the thread that sent it."""
    backend = _BlockedBackend()
    gw = Gateway(backend, GatewayConfig(port=0, max_inflight=1))
    url = gw.start_background()
    answers = []

    def stuck():
        stuck_client = HttpServiceClient(url, small_region)
        answers.append(stuck_client.track_all(1.0))
        stuck_client.close()

    thread = threading.Thread(target=stuck)
    thread.start()
    assert backend.entered.wait(timeout=5)
    client = HttpServiceClient(url, small_region)
    yield gw, backend, client, thread, answers
    backend.release.set()
    client.close()
    gw.shutdown()
    thread.join(timeout=5)


class TestBlockedBackend:
    def test_capacity_shed_when_every_slot_is_busy(self, blocked):
        gw, backend, client, thread, answers = blocked
        with pytest.raises(ShardOverloadError) as err:
            client.track_all(2.0)
        assert err.value.operation == "capacity"
        assert _shed_count(gw, "capacity") == 1
        assert client.healthz()["inflight"] == 1  # GETs are not admission-gated
        backend.release.set()
        thread.join(timeout=5)
        assert answers == [7]
        assert client.track_all(3.0) == 7  # the slot came back

    def test_inflight_request_completes_during_drain(self, blocked):
        gw, backend, client, thread, answers = blocked
        drain = threading.Thread(target=gw.shutdown)
        drain.start()
        await_until(lambda: gw.draining, 5.0)
        with pytest.raises(ShardOverloadError) as err:
            client.track_all(2.0)  # new work is refused ...
        assert err.value.operation == "draining"
        assert drain.is_alive() and answers == []
        backend.release.set()  # ... accepted work is finished
        thread.join(timeout=5)
        drain.join(timeout=5)
        assert answers == [7] and not drain.is_alive()


def _raw_connection(url):
    host, port = url.rsplit("/", 1)[1].split(":")
    return socket.create_connection((host, int(port)), timeout=5)


def _peer_hung_up(sock):
    try:
        return sock.recv(65536) == b""
    except ConnectionError:
        return True


class TestShutdown:
    def test_shutdown_hangs_up_idle_keep_alive_connections(self, backend):
        gw = Gateway(backend, GatewayConfig(port=0))
        idle = _raw_connection(gw.start_background())
        try:
            idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200 OK")
            gw.shutdown()  # the connection is idle between requests
            assert _peer_hung_up(idle)
            assert gw._conns == {}
            gw.shutdown()
        finally:
            idle.close()

    def test_over_long_header_line_is_refused_unbuffered(
        self, gateway, client
    ):
        _gw, url = gateway
        conn = _raw_connection(url)
        try:
            # No newline ever comes: a server that buffered until one did
            # would wait here forever.
            conn.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                         + b"a" * (MAX_LINE_BYTES + 1))
            assert _peer_hung_up(conn)
        finally:
            conn.close()
        assert client.healthz()["ok"] is True

    def test_serve_forever_exits_zero_on_sigterm(self):
        script = (
            "from repro.service import Gateway\n"
            "Gateway(object()).serve_forever("
            "on_start=lambda url: print(url, flush=True))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        process = subprocess.Popen([sys.executable, "-c", script], env=env,
                                   stdout=subprocess.PIPE, text=True)
        try:
            url = process.stdout.readline().strip()
            with urllib.request.urlopen(f"{url}/healthz") as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=20) == 0
        finally:
            process.kill()
            process.stdout.close()

    def test_background_shutdown_is_clean_and_idempotent(self, backend):
        gw = Gateway(backend, GatewayConfig(port=0))
        url = gw.start_background()
        client = HttpServiceClient(url, backend.region)
        assert client.healthz()["ok"] is True
        client.close()
        gw.shutdown()
        gw.shutdown()  # second call is a no-op
