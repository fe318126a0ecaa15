"""Span tracing, installed from the benchmark's side.

The program is not edited: :func:`install` wraps each layer's public
callables (class attributes and the module-level names call sites resolve at
call time) with span recorders, and the returned handle restores them.
Spans stay in memory and are written out when the run ends.

A span is ``(id, parent, name, start, end, request, n)``:

* ``parent`` is the span that was open on the same thread when this one
  started (0 for a root).  ``ShardWorker.submit`` carries the submitter's
  span across the thread hop: the job runs under a ``service.shard.service``
  span whose parent is the span that submitted it, preceded by a
  ``service.shard.queue_wait`` span covering the time it sat in the queue;
* ``request`` is the id the driver opened the enclosing request with;
* ``n`` is a count taken at the boundary (matches returned, window rows).

Self time = duration − the part of the span its children cover
(:func:`self_times`).  The gateway runs in this process but on its own
threads and nothing links an HTTP request to the executor job that serves
it, so service spans that start as roots there are adopted by the
``proc.client.*`` span that contains them in time (:func:`adopt_orphans`).
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: id, parent, name, start, end, request, n
Span = Tuple[int, int, str, float, float, Optional[int], Optional[int]]


class Recorder:
    """In-memory span sink with a per-thread open-span stack."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (op, args, result) of shard RPCs, for the frame replay.
        self.rpc_samples: List[Tuple[str, Any, Any]] = []

    # -- per-thread context ------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Tuple[int, Optional[int]]:
        """(open span id or 0, request id) of the calling thread."""
        stack = self._stack()
        return (stack[-1] if stack else 0,
                getattr(self._local, "request", None))

    @contextlib.contextmanager
    def adopt(self, parent: int, request: Optional[int]):
        """Run the body as if ``parent`` were open on this thread."""
        stack = self._stack()
        saved = getattr(self._local, "request", None)
        stack.append(parent)
        self._local.request = request
        try:
            yield
        finally:
            stack.pop()
            self._local.request = saved

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append((
                span_id, parent, name, started, ended,
                getattr(self._local, "request", None), None,
            ))

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one request (the driver opens it)."""
        self._local.request = request_id
        try:
            with self.span("request"):
                yield
        finally:
            self._local.request = None

    def record(self, name: str, parent: int, started: float, ended: float,
               request: Optional[int]) -> int:
        """Append a span measured by the caller (queue wait)."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, started, ended, request,
                           None))
        return span_id

    def installed(self) -> "Installed":
        """Context manager: span wrappers on for the body, off after."""
        return install(self)

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request, n in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request, "n": n,
                }) + "\n")


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _wrap(recorder: Recorder, name: Any, fn: Callable,
          count: Optional[Callable[[Any], int]] = None) -> Callable:
    """Span around ``fn``.  ``name`` is a string or a callable of the call's
    arguments (RPC spans are named after the op they carry).  Same
    bookkeeping as :meth:`Recorder.span`, inlined: this runs a few hundred
    thousand times per traced round and a context manager would triple
    the overhead it adds to what it measures."""

    def wrapper(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(*args, **kwargs)
        stack = recorder._stack()
        span_id = next(recorder._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        n = None
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = count(result)
            return result
        finally:
            ended = time.perf_counter()
            stack.pop()
            recorder.spans.append((
                span_id, parent, span_name, started, ended,
                getattr(recorder._local, "request", None), n,
            ))

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_submit(recorder: Recorder, submit: Callable) -> Callable:
    """``ShardWorker.submit``: carry the submitter's span across the thread
    hop and split the job's life into queue wait and service.  The
    worker-side spans become children of the span that was open when the
    job was submitted (``service.shard.call`` or the router's own op span),
    which stays open until the job's result is in."""

    def wrapper(self, operation, fn):
        parent, request = recorder.context()
        enqueued = time.perf_counter()

        def traced_fn():
            recorder.record("service.shard.queue_wait", parent, enqueued,
                            time.perf_counter(), request)
            with recorder.adopt(parent, request):
                with recorder.span("service.shard.service"):
                    return fn()

        with recorder.span("service.shard.submit"):
            return submit(self, operation, traced_fn)

    wrapper.__wrapped__ = submit
    return wrapper


def _wrap_call(recorder: Recorder, call: Callable) -> Callable:
    """``ShardWorker.call`` = submit + wait: one span over both, so the
    worker-side spans fall inside it and its self time is the hand-off."""

    def wrapper(self, operation, fn):
        with recorder.span("service.shard.call"):
            return call(self, operation, fn)

    wrapper.__wrapped__ = call
    return wrapper


def _rpc_name(self, op, *args, **kwargs) -> str:
    return f"proc.rpc.{op}"


def _len(result: Any) -> int:
    return len(result)


def _window_rows(result: Any) -> int:
    return len(result[0])


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str, name: Any,
              count: Optional[Callable[[Any], int]] = None) -> None:
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(self.recorder, name, original, count))

    def replace(self, owner: Any, attribute: str, wrapped: Callable) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> Recorder:
        return self.recorder

    def __exit__(self, *_exc: Any) -> None:
        self.restore()


def install(recorder: Recorder) -> Installed:
    """Wrap every layer boundary the benchmark reports on."""
    import http.client

    import repro.core.booking as booking
    import repro.core.engine as engine
    import repro.durability.adapter as durable
    import repro.durability.recovery as recovery
    import repro.index.flat_index as flat
    import repro.service.proc.router as proc_router
    import repro.service.router as thread_router
    from repro.core.engine import XAREngine
    from repro.durability.wal import WriteAheadLog
    from repro.index.cluster_index import ClusterRideIndex
    from repro.service.proc.client import HttpServiceClient
    from repro.service.proc.supervisor import ProcShard
    from repro.service.shard import ShardWorker
    from repro.service.sharding import ShardMap

    done = Installed(recorder)
    try:
        # core
        done.patch(XAREngine, "search", "core.search", _len)
        done.patch(flat, "flat_search_rides", "core.search.flat")
        done.patch(XAREngine, "create_ride", "core.create")
        done.patch(XAREngine, "book", "core.book")
        done.patch(XAREngine, "track_all", "core.track")
        done.patch(engine, "build_ride_entry", "core.reachability")
        # roadnet (create routes with A*, the booking splice with Dijkstra)
        done.patch(engine, "astar", "roadnet.astar")
        done.patch(booking, "dijkstra_path", "roadnet.dijkstra")
        # index
        done.patch(flat.FlatSearchIndex, "window", "index.flat.window",
                   _window_rows)
        done.patch(flat.FlatSearchIndex, "reindex_ride", "index.flat.write")
        done.patch(flat.FlatSearchIndex, "drop_ride", "index.flat.write")
        for method in ("update", "remove", "purge_ride"):
            done.patch(ClusterRideIndex, method, "index.cluster.write")
        # durability
        for method, op in (("create", "create"), ("book", "book"),
                           ("track_all", "track"), ("search", "search")):
            done.patch(durable.DurableAdapter, method,
                       f"durability.adapter.{op}")
        done.patch(WriteAheadLog, "append", "durability.wal.append")
        done.patch(WriteAheadLog, "sync", "durability.wal.sync")
        done.patch(durable, "write_checkpoint", "durability.checkpoint.write")
        done.patch(recovery, "read_checkpoint",
                   "durability.recovery.checkpoint_load")
        done.patch(recovery, "restore_engine_state",
                   "durability.recovery.checkpoint_load")
        done.patch(recovery, "replay_record", "durability.recovery.replay")
        # service (thread router)
        for method, op in (("create", "create"), ("book", "book"),
                           ("track_all", "track"), ("search", "search")):
            done.patch(thread_router.ShardRouter, method,
                       f"service.router.{op}")
            done.patch(proc_router.ProcRouter, method, f"proc.router.{op}")
            done.patch(HttpServiceClient, method, f"proc.client.{op}")
        done.patch(ShardMap, "shards_for_request", "service.sharding.route",
                   _len)
        done.patch(ShardMap, "shard_of_point", "service.sharding.route")
        done.replace(ShardWorker, "submit",
                     _wrap_submit(recorder, ShardWorker.submit))
        done.replace(ShardWorker, "call",
                     _wrap_call(recorder, ShardWorker.call))
        done.patch(ShardWorker, "execute_inline", "service.shard.inline")
        done.patch(thread_router, "merge_matches", "service.merge")
        done.patch(proc_router, "merge_matches", "service.merge")
        # service.proc
        done.replace(ProcShard, "rpc", _wrap_rpc(recorder, ProcShard.rpc))
        # HTTP wire, seen from the client
        done.patch(http.client.HTTPConnection, "request", "http.wire.send")
        done.patch(http.client.HTTPConnection, "getresponse", "http.wire.wait")
        done.patch(http.client.HTTPResponse, "read", "http.wire.read")
    except BaseException:
        done.restore()
        raise
    return done


#: RPC samples kept for the frame replay.
_RPC_SAMPLE_CAP = 400


def _wrap_rpc(recorder: Recorder, rpc: Callable) -> Callable:
    traced = _wrap(recorder, _rpc_name, rpc)

    def wrapper(self, op, args=None, **kwargs):
        result = traced(self, op, args, **kwargs)
        if len(recorder.rpc_samples) < _RPC_SAMPLE_CAP:
            recorder.rpc_samples.append((op, args, result))
        return result

    wrapper.__wrapped__ = rpc
    return wrapper


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def adopt_orphans(spans: List[Span], host_prefix: str = "proc.client.",
                  roots: Iterable[str] = ("request",)) -> List[Span]:
    """Give root spans that are not request roots the client-op span that
    contains them in time (the tightest one when several do).  The gateway
    can start serving a request while the client is still inside ``send``,
    so the host is the whole client op, not its wait for the response."""
    hosts = sorted((s for s in spans if s[2].startswith(host_prefix)),
                   key=lambda s: s[3])
    starts = [s[3] for s in hosts]
    keep_roots = set(roots)
    out: List[Span] = []
    for span in spans:
        if span[1] != 0 or span[2] in keep_roots or span[2].startswith(host_prefix):
            out.append(span)
            continue
        best = None
        index = bisect.bisect_right(starts, span[3]) - 1
        # Hosts are sorted by start; walk back while they could contain us.
        while index >= 0 and span[3] - hosts[index][3] < 5.0:
            host = hosts[index]
            if host[4] >= span[4]:
                if best is None or host[4] - host[3] < best[4] - best[3]:
                    best = host
            index -= 1
        if best is None:
            out.append(span)
        else:
            out.append((span[0], best[0], span[2], span[3], span[4],
                        best[5], span[6]))
    return out


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _id, parent, _name, start, end, _request, _n in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for span_id, _parent, _name, start, end, _request, _n in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out
