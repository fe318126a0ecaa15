"""HTTP client adapter: drive a remote gateway like a local engine.

:class:`HttpServiceClient` implements the EngineAdapter surface over the
gateway's HTTP/JSON API, so the load generator (``xar loadtest --remote``),
the differential harness's workloads, or any other adapter consumer can
point at a running ``xar serve`` instance instead of an in-process service.

Connections are **per thread** (``http.client`` connections are not
thread-safe; the load generator calls from many rider threads at once) and
kept alive across requests.  Every request carries the caller's remaining
deadline in ``X-Deadline-Ms`` — the budget the gateway's admission control
sheds against.

Status mapping (the inverse of the gateway's):

* 503 + shed reason or ``ShardOverloadError``   -> ``ShardOverloadError``
  (the load generator's shed accounting just works against a remote fleet);
* 503 + ``WorkerCrashError``                    -> ``WorkerCrashError``;
* 504                                           -> ``DeadlineExceededError``;
* 422                                           -> the named ``XARError``
  subclass, rebuilt like the shard RPC layer rebuilds remote errors.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from typing import TYPE_CHECKING, Any, Dict, Optional

from ...discretization import DiscretizedRegion
from ...exceptions import (
    DeadlineExceededError,
    RpcTransportError,
    ShardOverloadError,
    WorkerCrashError,
)
from ..ops import ROUTES, Op
from .rpc import raise_remote_error

if TYPE_CHECKING:  # pragma: no cover - imported where a connection is made
    import http.client


class HttpServiceClient:
    """EngineAdapter-shaped HTTP client for the gateway.

    The op methods (``create``, ``search``, ``book``, ``track_all``,
    ``cancel``, ``cancel_booking``, ``active_rides``, ``rollback_count``,
    ``index_stats``, ``stats``) are not written out: each is grown from its
    op-table entry (:data:`repro.service.ops.ROUTES`) below the class, so
    the bodies it sends and reads are the records the gateway decodes and
    encodes.
    """

    def __init__(
        self,
        base_url: str,
        region: DiscretizedRegion,
        *,
        deadline_ms: float = 30_000.0,
        timeout_s: Optional[float] = None,
    ):
        parsed = urllib.parse.urlsplit(
            base_url if "//" in base_url else f"//{base_url}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.region = region
        self.deadline_ms = deadline_ms
        self.timeout_s = (deadline_ms / 1000.0 + 5.0
                          if timeout_s is None else timeout_s)
        self.name = f"Http({self.host}:{self.port})"
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            # Imported here, not at module level: ``http.client`` pulls in
            # ``ssl`` and ``email`` (≈ 2 MB resident), and resolving this
            # class must not load them into processes that never dial.
            import http.client

            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
            self._local.conn = conn
        return conn

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        import http.client  # loaded by ``_connection`` by now

        conn = self._connection()
        body = (None if payload is None
                else json.dumps(payload, separators=(",", ":")).encode())
        headers = {
            "Content-Type": "application/json",
            "X-Deadline-Ms": str(self.deadline_ms
                                 if deadline_ms is None else deadline_ms),
        }
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Drop the (possibly desynchronised) connection; the next call
            # from this thread dials fresh.
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass
            raise RpcTransportError(
                f"gateway request failed: {exc}", request_sent=True
            ) from exc
        try:
            parsed = json.loads(data.decode("utf-8")) if data else {}
        except (ValueError, UnicodeDecodeError):
            parsed = {"error": "XARError",
                      "message": f"undecodable gateway response "
                                 f"(status {response.status})"}
        if response.status == 200:
            return parsed
        self._raise_for(response.status, parsed, path)
        raise AssertionError("unreachable")

    def _raise_for(self, status: int, body: Dict[str, Any],
                   path: str) -> None:
        name = str(body.get("error", "XARError"))
        message = str(body.get("message", f"gateway returned {status}"))
        if body.get("shed"):
            # Gateway admission control; indistinguishable from an
            # overloaded shard as far as the caller's accounting goes.
            raise ShardOverloadError(-1, str(body["shed"]))
        if name == "WorkerCrashError":
            raise WorkerCrashError(message)
        if status == 504 or name == "DeadlineExceededError":
            raise DeadlineExceededError(path, 0.0, self.deadline_ms / 1000.0)
        raise_remote_error(body, shard_id=int(body.get("shard_id") or -1),
                           operation=str(body.get("operation") or path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._local.conn = None


def _op_method(op: Op):
    verb, route = op.http

    def method(self, *args, **kwargs):
        values = op.args.bind(args, kwargs)
        body = self._request(
            verb, route, op.args.encode(values) if verb == "POST" else None)
        return op.decode_result(body, self.region)

    method.__name__ = method.__qualname__ = op.method
    method.__doc__ = (f"``{verb} {route}``: the ``{op.name}`` op "
                      "(arguments by position or JSON key).")
    return method


for _op in ROUTES.values():
    setattr(HttpServiceClient, _op.method, _op_method(_op))
