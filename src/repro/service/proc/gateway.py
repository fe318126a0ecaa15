"""A threaded HTTP/JSON gateway with admission control and load shedding.

The gateway fronts any EngineAdapter-shaped service (:class:`ProcRouter`,
the thread-mode :class:`~repro.service.router.ShardRouter`, a bare engine
adapter) with a small HTTP/1.1 surface::

    POST /v1/create  /v1/search  /v1/book  /v1/track
         /v1/cancel  /v1/cancel_booking
    GET  /v1/rides   /v1/rollbacks  /v1/index-stats  /v1/stats
    GET  /healthz    /metrics (Prometheus text)

The ``/v1`` routes are the op table's (:data:`repro.service.ops.ROUTES`):
each names the service method it calls, and its request and response bodies
are the op's argument and result records — the shapes the shard RPC and the
WAL carry, one wire format end to end.

Admission control sheds *before* any work is queued, cheapest check first,
and counts every refusal in ``xar_gateway_shed_total{reason}``:

* ``draining``  — SIGTERM received; in-flight requests finish, new ones go
  away (a deploy must not strand accepted work);
* ``capacity``  — more than ``max_inflight`` requests already executing;
* ``deadline``  — the caller's remaining deadline (``X-Deadline-Ms``
  header) cannot cover the observed p95 service RTT, so serving it would
  burn a worker slot producing an answer the caller already abandoned.
  The p95 comes from a sliding window of measured RTTs and only engages
  once ``min_rtt_samples`` responses have been observed.

Service calls are synchronous (the routers block on shard RPC), so a
request runs to completion on the thread that read it: an accept thread
gives every connection its own thread, which loops read → admit → service
call → write.  ``max_inflight`` bounds the work, not the connections.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Deque, Dict, Optional, Tuple

from ...exceptions import (
    DeadlineExceededError,
    ShardOverloadError,
    WorkerCrashError,
    XARError,
)
from ...obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry, to_prometheus_text
from ..ops import ROUTES

SHED_REASONS = ("draining", "capacity", "deadline")

#: Longest request or header line read; a connection that sends a longer
#: one is closed instead of buffered.
MAX_LINE_BYTES = 64 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            422: "Unprocessable Entity", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


@dataclass
class GatewayConfig:
    """Knobs of the HTTP gateway."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick (the bound port is published as ``Gateway.port``).
    port: int = 0
    #: Concurrent requests allowed into the service; beyond this the
    #: gateway sheds with reason="capacity".
    max_inflight: int = 64
    #: Deadline assumed for requests without an ``X-Deadline-Ms`` header.
    default_deadline_ms: float = 30_000.0
    #: Sliding window of measured RTTs feeding the p95 estimate.
    rtt_window: int = 256
    #: Responses observed before deadline-based shedding engages.
    min_rtt_samples: int = 20
    #: Shed when remaining_deadline < p95 * this factor.
    deadline_safety: float = 1.0
    #: Grace period for the SIGTERM drain.
    drain_timeout_s: float = 10.0


class _RttEstimator:
    """Sliding-window p95 of observed service RTTs (seconds)."""

    def __init__(self, window: int):
        self._samples: Deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, rtt_s: float) -> None:
        with self._lock:
            self._samples.append(rtt_s)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def p95_s(self) -> Optional[float]:
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        return ordered[int(0.95 * (len(ordered) - 1))]


class Gateway:
    """Threaded HTTP façade over an EngineAdapter-shaped service."""

    def __init__(
        self,
        service: Any,
        config: Optional[GatewayConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.service = service
        self.config = config or GatewayConfig()
        #: Defaults to the service's registry so one /metrics exposition
        #: carries gateway, router and shard series together.
        self.metrics = (
            metrics
            if metrics is not None
            else getattr(service, "metrics", None) or MetricsRegistry()
        )
        self.port: Optional[int] = None
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._rtt = _RttEstimator(self.config.rtt_window)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Open connections and the threads serving them.
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._c_requests = self.metrics.counter(
            "xar_gateway_requests_total",
            "Gateway requests by route and status code",
            labels=("route", "status"),
        )
        self._c_shed = self.metrics.counter(
            "xar_gateway_shed_total",
            "Requests refused by gateway admission control, by reason "
            "(draining / capacity / deadline)",
            labels=("reason",),
        )
        for reason in SHED_REASONS:
            self._c_shed.labels(reason=reason)
        self._h_latency = self.metrics.histogram(
            "xar_gateway_request_seconds",
            "Wall time from parsed request to response written",
            labels=("route",),
            buckets=DEFAULT_LATENCY_BUCKETS_S,
        )
        self._g_inflight = self.metrics.gauge(
            "xar_gateway_inflight_requests",
            "Requests currently executing against the service",
        )

    # ------------------------------------------------------------------
    # Introspection used by tests and the shed check
    # ------------------------------------------------------------------
    def p95_rtt_ms(self) -> Optional[float]:
        p95 = self._rtt.p95_s()
        return None if p95 is None else p95 * 1000.0

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, deadline_ms: float) -> Optional[str]:
        """None to admit — the request then holds an in-flight slot until
        :meth:`_leave` — else the shed reason."""
        if self.draining:
            return "draining"
        # Check and take the slot under one lock: connection threads admit
        # concurrently, and a check-then-increment would overshoot the cap.
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return "capacity"
            self._inflight += 1
            self._g_inflight.set(self._inflight)
        if len(self._rtt) >= self.config.min_rtt_samples:
            p95 = self._rtt.p95_s()
            if (p95 is not None
                    and deadline_ms < p95 * 1000.0 * self.config.deadline_safety):
                self._leave()
                return "deadline"
        return None

    def _leave(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection's thread: requests run to completion here."""
        try:
            with conn, conn.makefile("rb") as reader:
                while True:
                    request = self._read_request(reader)
                    if request is None:
                        return
                    method, path, headers, body = request
                    status, payload = self._route(method, path, headers, body)
                    keep_alive = (
                        headers.get("connection", "").lower() != "close")
                    conn.sendall(_response(status, payload, keep_alive))
                    if not keep_alive:
                        return
        except (OSError, ValueError):
            pass  # peer gone, or a request too malformed to answer
        finally:
            with self._conns_lock:
                self._conns.pop(conn, None)

    def _read_request(
        self, reader: BinaryIO
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = _read_line(reader)
        if not line:
            return None  # clean EOF between requests
        method, path, _version = line.decode("latin-1").split(" ", 2)
        headers: Dict[str, str] = {}
        while True:
            raw = _read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = reader.read(length) if length else b""
        if len(body) < length:
            raise ValueError("peer closed mid-body")
        return method.upper(), path, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes) -> Tuple[int, Any]:
        route = f"{method} {path}"
        started = time.perf_counter()
        try:
            status, payload = self._dispatch(method, path, headers, body)
        except XARError as exc:
            status, payload = _domain_status(exc), _error_body(exc)
        except WorkerCrashError as exc:
            status, payload = 503, _error_body(exc)
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            status, payload = 500, {"error": type(exc).__name__,
                                    "message": str(exc)}
        self._c_requests.labels(route=route, status=str(status)).inc()
        self._h_latency.labels(route=route).observe(
            time.perf_counter() - started)
        return status, payload

    def _dispatch(self, method: str, path: str, headers: Dict[str, str],
                  body: bytes) -> Tuple[int, Any]:
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "ok": not self.draining,
                    "draining": self.draining,
                    "inflight": self._inflight,
                    "p95_rtt_ms": self.p95_rtt_ms(),
                }
            if path == "/metrics":
                return 200, to_prometheus_text(self.metrics)
            op = ROUTES.get((method, path))
            if op is None:
                return 404, {"error": "NotFound", "message": path}
            return 200, op.encode_result(
                self._unmetered(getattr(self.service, op.method)))
        if method != "POST":
            return 404, {"error": "NotFound", "message": f"{method} {path}"}

        try:
            args = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(args, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "BadRequest", "message": str(exc)}

        try:
            deadline_ms = float(
                headers.get("x-deadline-ms", self.config.default_deadline_ms))
        except ValueError:
            return 400, {"error": "BadRequest",
                         "message": "X-Deadline-Ms must be a number"}

        reason = self._admit(deadline_ms)
        if reason is not None:
            self._c_shed.labels(reason=reason).inc()
            return 503, {"error": "GatewayShed", "shed": reason,
                         "message": f"request shed by gateway ({reason})"}

        try:
            return self._serve(path, args)
        finally:
            self._leave()

    def _serve(self, path: str, args: Dict[str, Any]) -> Tuple[int, Any]:
        """An admitted POST: decode, call the service, encode."""
        op = ROUTES.get(("POST", path))
        if op is None:
            return 404, {"error": "NotFound", "message": path}
        values = op.args.decode(args)
        method = getattr(self.service, op.method)
        return 200, op.encode_result(self._call(lambda: method(*values)))

    def _call(self, fn: Callable[[], Any]) -> Any:
        """An admitted service call; its time feeds the RTT estimator."""
        started = time.perf_counter()
        try:
            return fn()
        finally:
            self._rtt.observe(time.perf_counter() - started)

    def _unmetered(self, fn: Callable[[], Any]) -> Any:
        """An introspection call: counted in flight (the drain waits for
        it), neither admission-controlled nor fed to the RTT estimator."""
        with self._inflight_lock:
            self._inflight += 1
            self._g_inflight.set(self._inflight)
        try:
            return fn()
        finally:
            self._leave()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_background(self) -> str:
        """Bind, listen and serve from daemon threads; returns the base URL
        (port 0 resolves at bind)."""
        listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="xar-gateway-accept", daemon=True)
        self._accept_thread.start()
        return f"http://{self.config.host}:{self.port}"

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="xar-gateway-conn", daemon=True)
            with self._conns_lock:
                self._conns[conn] = thread
            thread.start()

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Drain and stop, from any thread: refuse new work, wait for
        in-flight requests, stop accepting, hang up.  A no-op on a gateway
        that is not running."""
        listener, self._listener = self._listener, None
        if listener is None:
            return
        self.draining = True
        timeout = (self.config.drain_timeout_s
                   if drain_timeout_s is None else drain_timeout_s)
        deadline = time.monotonic() + timeout
        while self._inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        # Closing a listener does not wake a thread blocked in accept();
        # shutting it down does.
        _hang_up(listener)
        listener.close()
        self._accept_thread.join(timeout=5.0)
        # Half-close every connection: a thread idle in a keep-alive read
        # sees EOF and exits, one still writing its response finishes first.
        with self._conns_lock:
            conns = dict(self._conns)
        for conn in conns:
            _hang_up(conn)
        for thread in conns.values():
            thread.join(timeout=1.0)

    def serve_forever(
        self, on_start: Optional[Callable[[str], None]] = None
    ) -> None:
        """Blocking entry point (the CLI's ``xar serve``): run until
        SIGTERM/SIGINT, then drain and return.  ``on_start`` receives the
        bound base URL once the listener is up."""
        stop = threading.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, lambda _signum, _frame: stop.set())
            except ValueError:
                pass  # not the main thread: the caller stops us another way
        url = self.start_background()
        if on_start is not None:
            on_start(url)
        stop.wait()
        self.shutdown()


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"line over {MAX_LINE_BYTES} bytes")
    return line


def _response(status: int, payload: Any, keep_alive: bool) -> bytes:
    if isinstance(payload, str):  # /metrics exposition
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _hang_up(sock: socket.socket) -> None:
    """Stop reading from ``sock``, waking any thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # already closed by its own thread


def _domain_status(exc: XARError) -> int:
    if isinstance(exc, ShardOverloadError):
        return 503
    if isinstance(exc, DeadlineExceededError):
        return 504
    return 422


def _error_body(exc: BaseException) -> Dict[str, Any]:
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "shard_id": getattr(exc, "shard_id", None),
        "operation": getattr(exc, "operation", None),
    }
