"""The shard subprocess: ``python -m repro.service.proc.worker CONFIG.json``.

One process per shard, started by the supervisor already bound to its
slot's CPU (``ENGINE_TURN.slot_cpu``), so it and every thread it starts —
numpy's BLAS pool included — run there.  On start the child

1. loads the discretized region from disk (regions are content-digested,
   so parent and child provably serve the same geometry) and builds its
   landmark shortest-path trees, so the first booking does not pay for them,
2. builds the :class:`~repro.service.stack.ShardStack` a thread shard runs
   too — engine **recovered** from the spec's WAL when it exists (restart
   *is* crash recovery; there is no separate cold path), then
   ``XARAdapter`` → ``DurableAdapter`` behind a
   :class:`~repro.service.shard.ShardWorker` — and serves each
   RPC by decoding it, calling the stack's local operation, and encoding
   the answer, and
3. connects back to the supervisor's UNIX socket: ``ops_connections``
   request/response channels plus one dedicated heartbeat channel.

**Every op runs on the thread that read it.**  A connection thread serves
its op through the stack, whose worker runs every job on its caller's
thread — admission, the interpreter's turn, the shard's stats and
``xar_shard_*`` metrics — exactly as in a thread shard.  The heartbeat's
``depth`` is the number of ops in flight.

Failure semantics: a :class:`~repro.exceptions.WorkerCrashError` surfacing
from the engine (injected mid-book crashes included) terminates the process
with ``os._exit`` *without answering the in-flight request* — the parent
observes EOF mid-call, exactly like a real process death, and recovery
completes the op from the WAL.  ``SIGTERM`` triggers a graceful drain: stop
admitting, wait for the ops in flight and take the turn, fsync the WAL,
exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict

from ...discretization import load_region, region_digest
from ...exceptions import (
    DeadlineExceededError,
    RpcError,
    ShardOverloadError,
    UnknownRideError,
    WorkerCrashError,
    XARError,
)
from ...obs import MetricsRegistry
from ..ops import OPS
from ..shard import ENGINE_TURN
from ..stack import ShardSpec, ShardStack, StackConfig
from .rpc import error_response, read_frame, write_frame

#: Exit code for simulated/real worker crashes (parent classifies by it).
CRASH_EXIT_CODE = 13


class ShardProcess:
    """Everything one shard subprocess owns; built from the config dict."""

    def __init__(self, config: Dict[str, Any]):
        self.generation = int(config.get("generation", 0))
        self.metrics = MetricsRegistry()
        region = load_region(config["region_dir"])
        # Built before the child connects back, so the shard reports LIVE
        # with what a booking splice reads already in place, and a fleet's
        # children build theirs at the same time.  (Thread shards share
        # one region and keep the lazy build.)
        region.path_trees()
        #: The stack a thread shard runs, recovered from the spec's WAL
        #: when it exists.
        self.stack = ShardStack(
            region,
            ShardSpec(**config["spec"]),
            StackConfig(**config["stack"]),
            digest=region_digest(region),
            metrics=self.metrics,
        )
        self.shard_id = self.stack.shard_id
        self._draining = threading.Event()
        self._shutdown = threading.Event()
        self._hang_heartbeats = threading.Event()
        #: SIGTERM's drain thread and the main thread both drain; the
        #: second waits here until the first exits the process.
        self._drain_lock = threading.Lock()
        self._hb_seq = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request; returns the response envelope.

        A ``WorkerCrashError`` escaping from here means the "process" died
        mid-operation: the caller (the connection loop) must ``os._exit``
        without responding, never answer on the worker's behalf.
        """
        request_id = int(request.get("id", -1))
        op = str(request.get("op", ""))
        args = request.get("args") or {}
        deadline_ms = request.get("deadline_ms")
        try:
            if deadline_ms is not None and float(deadline_ms) <= 0.0:
                raise DeadlineExceededError(op, 0.0, 0.0)
            if self._draining.is_set() and op not in ("ping", "stats"):
                raise ShardOverloadError(self.shard_id, op)
            result = self._execute(op, args)
        except WorkerCrashError:
            raise
        except XARError as exc:
            return error_response(request_id, exc)
        except Exception as exc:  # noqa: BLE001 - relayed, never fatal here
            return error_response(request_id, RpcError(
                f"unhandled {type(exc).__name__}: {exc}"))
        return {"id": request_id, "ok": True, "result": result}

    def _execute(self, op: str, args: Dict[str, Any]) -> Any:
        """Decode, run the stack's local operation, encode — all three from
        the op's declaration (:mod:`~repro.service.ops`).  Hand-written are
        only the ops about the process itself and the in-job safety checks
        of :data:`_IN_JOB`."""
        stack = self.stack
        if op == "ping":
            return self._life()
        if op == "crash":
            if str(args.get("mode", "exit")) == "mid_book":
                stack.arm_mid_book_crash()
                return {"armed": "mid_book"}
            # Plain crash: die right now, mid-RPC — no response ever leaves.
            raise WorkerCrashError(
                f"injected crash in shard {self.shard_id}")
        if op == "hang":
            # Keep the process alive but stop the heartbeats: the exact
            # failure the supervisor's hang detector must catch.
            self._hang_heartbeats.set()
            return {"hung": True}
        spec = OPS.get(op)
        if spec is None:
            raise RpcError(f"unknown rpc op {op!r}")
        values = spec.args.decode(args)
        checked = _IN_JOB.get(op)
        if checked is not None:
            engine = stack.engine
            record, extra = stack.mutate(
                op, lambda adapter: checked(engine, adapter, *values))
            return {**spec.encode_result(record), **extra}
        if op == "active_rides":
            # Encoded inside the turn: rides are mutable, and there no
            # booking can splice one mid-serialisation.
            return stack.admin(
                lambda: spec.encode_result(stack.adapter.active_rides()))
        result = spec.encode_result(stack.run(spec, values))
        if spec.result is None:
            # A free-form snapshot (stats) says which life of the shard
            # took it.
            result = {**result, **self._life()}
        return result

    def _life(self) -> Dict[str, Any]:
        return {"pid": os.getpid(), "generation": self.generation}

    # ------------------------------------------------------------------
    # Connection loops
    # ------------------------------------------------------------------
    def serve_connection(self, sock: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    request = read_frame(sock)
                except RpcError:
                    return  # peer gone or stream corrupt: this channel dies
                try:
                    response = self.dispatch(request)
                except WorkerCrashError:
                    # Process-death semantics: no response, no cleanup, no
                    # final fsync — flushed WAL bytes survive, nothing else.
                    os._exit(CRASH_EXIT_CODE)
                try:
                    write_frame(sock, response)
                except RpcError:
                    return
        finally:
            _close_quietly(sock)

    def heartbeat_loop(self, sock: socket.socket, interval_s: float) -> None:
        try:
            while not self._shutdown.is_set():
                if not self._hang_heartbeats.is_set():
                    self._hb_seq += 1
                    try:
                        write_frame(sock, {
                            "kind": "hb",
                            "seq": self._hb_seq,
                            "pid": os.getpid(),
                            "generation": self.generation,
                            "depth": self.stack.worker.in_flight,
                        })
                    except RpcError:
                        return
                self._shutdown.wait(interval_s)
        finally:
            _close_quietly(sock)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain_and_exit(self) -> None:
        """Graceful shutdown: admit nothing new, let the ops in flight
        finish, then sync the WAL inside the turn and exit 0."""
        self._drain_lock.acquire()
        self._draining.set()
        self._shutdown.set()
        self.stack.worker.close(timeout_s=30.0)  # waits for the ops in flight
        with ENGINE_TURN:
            self.stack.release_wal(sync=True)
        # Give connection threads a beat to flush final responses.
        time.sleep(0.05)
        os._exit(0)


def _book_once(engine, adapter, request, match):
    """Idempotent by ledger: a retried book whose first attempt crashed
    mid-apply finds the booking WAL replay completed and returns it
    verbatim — recovery, not the client, is the dedupe source of truth."""
    with engine.lock:
        for existing in engine.bookings:
            if (existing.request_id == request.request_id
                    and existing.ride_id == match.ride_id):
                return existing, {"deduped": True}
    return adapter.book(request, match), {"deduped": False}


def _cancel_booking_once(engine, adapter, request_id, ride_id):
    """Idempotent by ledger, like book: a retried cancellation whose first
    attempt crashed mid-apply finds the WAL replay already balanced the
    ledgers and returns the original record instead of un-splicing twice."""
    with engine.lock:
        booked = sum(
            1 for b in engine.bookings
            if b.request_id == request_id and b.ride_id == ride_id
        )
        cancelled = [
            c for c in engine.cancellations
            if c.request_id == request_id and c.ride_id == ride_id
        ]
        if cancelled and len(cancelled) >= booked:
            return cancelled[-1], {"deduped": True}
    return adapter.cancel_booking(request_id, ride_id), {"deduped": False}


def _cancel_known(engine, adapter, handle):
    """A ride crosses the wire as its id: resolve it here, so a cancel of a
    ride this shard does not hold is refused before anything is logged."""
    with engine.lock:
        ride = engine.rides.get(handle.ride_id)
    if ride is None:
        raise UnknownRideError(handle.ride_id)
    return adapter.cancel(ride), {}


#: Mutations whose worker job checks the shard's own state before applying:
#: ``(engine, adapter, *args) -> (result, extra reply keys)``.
_IN_JOB = {
    "book": _book_once,
    "cancel_booking": _cancel_booking_once,
    "cancel": _cancel_known,
}


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _connect(path: str, timeout_s: float = 30.0) -> socket.socket:
    deadline = time.monotonic() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.service.proc.worker CONFIG.json",
              file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        config = json.load(handle)

    shard = ShardProcess(config)
    handshake_base = {
        "shard": shard.shard_id,
        "pid": os.getpid(),
        "generation": shard.generation,
    }

    ops_connections = int(config.get("ops_connections", 2))
    socket_path = config["socket_path"]
    ops_socks = []
    for _n in range(ops_connections):
        sock = _connect(socket_path)
        write_frame(sock, {**handshake_base, "role": "ops"})
        ops_socks.append(sock)
    hb_sock = _connect(socket_path)
    write_frame(hb_sock, {
        **handshake_base,
        "role": "hb",
        "recovery": shard.stack.recovery,
    })

    def on_sigterm(_signum, _frame):
        # Run the drain off the signal frame so an op in flight is never
        # interrupted mid-mutation.
        threading.Thread(target=shard.drain_and_exit, daemon=True).start()

    signal.signal(signal.SIGTERM, on_sigterm)

    threads = [
        threading.Thread(target=shard.serve_connection, args=(sock,),
                         name=f"xar-proc-ops-{i}", daemon=True)
        for i, sock in enumerate(ops_socks)
    ]
    threads.append(threading.Thread(
        target=shard.heartbeat_loop,
        args=(hb_sock, float(config.get("heartbeat_interval_s", 0.5))),
        name="xar-proc-hb",
        daemon=True,
    ))
    for thread in threads:
        thread.start()

    # Park the main thread until SIGTERM's drain asks for shutdown.
    shard._shutdown.wait()
    shard.drain_and_exit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
