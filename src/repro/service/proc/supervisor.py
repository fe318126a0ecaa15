"""The supervision tree: spawn, watch, restart and quarantine shard processes.

:class:`ShardSupervisor` owns one subprocess per shard.  Each spawn
generation gets its own UNIX socket (``shard<k>.g<gen>.sock``) so a
straggler from a previous life can never answer on the current channel,
and its own stderr log.  Liveness is judged by two independent signals:

* **exit codes** — the monitor polls ``Popen.poll()``; any exit while the
  shard is supposed to be live is a *crash*;
* **heartbeats** — the child sends a frame every ``heartbeat_interval_s``
  on a dedicated connection; a process that is alive but silent for
  ``hang_timeout_s`` is a *hang* and is SIGKILLed (a wedged shard and a
  dead shard get the same treatment, because callers cannot tell them
  apart).

Every failure feeds the same restart path: crash recovery in the child
(`worker.py` replays the shard's WAL on boot), scheduled with exponential
backoff.  A shard that keeps dying — more than ``max_restarts`` consecutive
failures without a stability window in between — is **quarantined**:
requests fail fast with :class:`~repro.exceptions.ShardQuarantinedError`
(a ``ShardOverloadError`` subclass, so the router's partial-search
degradation serves around it) until a cooldown expires and a single probe
restart is allowed.

RPC calls go through :meth:`ProcShard.rpc`, which waits (bounded by the
caller's deadline) for the shard to be live, checks a connection out of the
pool, enforces the deadline as a socket timeout, and applies the bounded
retry policy — but only for calls that are safe to retry: reads, and
mutations carrying an idempotency key.  A ``create`` whose connection died
after the request was sent is *not* retried (the WAL may already hold it;
recovery completes it) and surfaces as
:class:`~repro.exceptions.WorkerCrashError` exactly like a thread-mode
crash.  Fan-outs (a search of several slots, every tracking tick) use
:meth:`ProcShard.start` instead: the same send half now, the receive half
when the caller gathers, so the children work at the same time.

The supervisor **is** the UNIX-socket
:class:`~repro.service.transport.ShardTransport`: a table op
(:mod:`~repro.service.ops`) marshals through its own records into one
``rpc`` call, and the reshard steps map onto the process lifecycle — ``drain`` stops a child and
parks it in ``RESHARDING`` where callers wait, ``snapshot`` recovers its
engine offline in the parent (a reshard after SIGKILL is just recovery +
carve), ``start`` spawns a child on a spec's files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ...discretization import DiscretizedRegion, save_region
from ...durability import engine_state, recover_engine
from ...exceptions import (
    DeadlineExceededError,
    RpcError,
    RpcProtocolError,
    RpcTransportError,
    ServiceClosedError,
    ServiceError,
    ShardOverloadError,
    ShardQuarantinedError,
    WorkerCrashError,
    XARError,
)
from ...obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry
from ..ops import OPS
from ..sharding import derive_seed
from ..stack import Rerouted, ShardSpec, StackConfig, make_engine
from .rpc import (
    RetryPolicy,
    raise_remote_error,
    read_frame,
    write_frame,
)

# Supervision states (exported as the ``xar_proc_shard_state`` gauge).
STARTING = "starting"
LIVE = "live"
RESTARTING = "restarting"
QUARANTINED = "quarantined"
STOPPED = "stopped"
#: Deliberately down for an elastic reshard: the monitor must NOT restart
#: it (the router owns its next life — possibly under a different WAL
#: directory), and RPC callers block until the new generation is adopted.
RESHARDING = "resharding"

STATE_CODES = {STARTING: 0, LIVE: 1, RESTARTING: 2, QUARANTINED: 3,
               STOPPED: 4, RESHARDING: 5}

_SEARCH, _TRACK = OPS["search"], OPS["track"]

#: What a best-effort call (stats probe, tick sweep) raises when its shard
#: cannot serve it now; the caller reports the shard absent instead.
_UNAVAILABLE = (ShardOverloadError, WorkerCrashError, DeadlineExceededError,
                RpcError)


@dataclass
class SupervisorConfig:
    """Knobs of the process-shard supervision tree."""

    n_shards: int = 4
    #: Scratch directory: per-shard WAL dirs, sockets, configs, logs.  The
    #: region is saved here too unless ``region_dir`` points at one.
    run_dir: str = "xar-proc"
    #: Pre-saved region directory (skips the save step when provided).
    region_dir: Optional[str] = None
    #: Child-side heartbeat period.
    heartbeat_interval_s: float = 0.25
    #: Heartbeat silence (while the process is alive) declared a hang.
    hang_timeout_s: float = 2.0
    #: Monitor poll period.
    check_interval_s: float = 0.1
    #: Exponential restart backoff: base * 2^(n-1), capped.
    restart_backoff_base_s: float = 0.1
    restart_backoff_cap_s: float = 5.0
    #: Consecutive failures beyond this quarantine the shard.
    max_restarts: int = 3
    #: A shard live this long has its consecutive-failure count reset.
    stability_reset_s: float = 5.0
    #: Quarantine cooldown before a single probe restart is allowed.
    quarantine_cooldown_s: float = 30.0
    #: How long a spawn may take to connect back before it is a failure.
    spawn_timeout_s: float = 30.0
    #: Parallel request/response channels per shard.
    ops_connections: int = 2
    #: Default per-op deadline when the caller does not bring one.
    default_deadline_s: float = 30.0
    #: Grace period for SIGTERM drain before escalating to SIGKILL.
    drain_timeout_s: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Child engine/stack knobs (mirror ServiceConfig).
    queue_depth: int = 128
    fsync_every: int = 64
    checkpoint_every: int = 0
    resilient: bool = False
    optimize_insertion: bool = False
    seed: int = 0


class _Sent(NamedTuple):
    """A request on the wire: what its receive half needs."""

    op: str
    pool: "queue.Queue[socket.socket]"
    sock: socket.socket
    request_id: int
    started: float  #: perf_counter just before the frame was written


#: How often a handshake waiting for its child checks the child is alive.
_ACCEPT_POLL_S = 0.05


@dataclass
class _Launch:
    """A child on its way up: spawned, not yet connected back."""

    shard: "ProcShard"
    generation: int
    socket_path: str
    log_path: str
    listener: socket.socket
    deadline: float  #: monotonic time by which the child must connect back
    process: Optional[subprocess.Popen] = None

    def check_booting(self) -> None:
        """Raise if the child can no longer connect back in time."""
        shard_id = self.shard.shard_id
        code = self.process.poll()
        if code is not None:
            raise ServiceError(
                f"shard {shard_id} exited with code {code} before "
                f"connecting back (log: {self.log_path})")
        if time.monotonic() >= self.deadline:
            raise ServiceError(
                f"shard {shard_id} did not connect back in time "
                f"(log: {self.log_path})")

    def abort(self) -> None:
        """Kill the child, close the listener, remove the socket file."""
        process = self.process
        if process is not None:
            if process.poll() is None:
                process.kill()
            process.wait()
        _close_quietly(self.listener)
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass


class ProcShard:
    """One supervised shard: process handle, connection pool, state machine."""

    def __init__(self, shard_id: int, config: SupervisorConfig,
                 supervisor: "ShardSupervisor"):
        self.shard_id = shard_id
        self.config = config
        self.supervisor = supervisor
        #: Which shard the next spawn boots (lane + files); the reshard
        #: machine re-points it at a carved generation via ``start``.
        self.spec: Optional[ShardSpec] = None
        self.state = STARTING
        self.generation = 0
        self.process: Optional[subprocess.Popen] = None
        self.last_heartbeat = time.monotonic()
        self.live_since = 0.0
        self.consecutive_failures = 0
        self.restarts = 0
        self.quarantines = 0
        #: When the monitor may try the next life (restart backoff, or the
        #: quarantine cooldown before its single probe restart).
        self.next_restart_at = 0.0
        self.restart_inflight = False
        self.last_recovery: Optional[Dict[str, Any]] = None
        self.rng = random.Random(derive_seed(config.seed, shard_id) ^ 0x5AFE)
        self._conns: "queue.Queue[socket.socket]" = queue.Queue()
        self._hb_sock: Optional[socket.socket] = None
        self._cond = threading.Condition()
        self._id_lock = threading.Lock()
        self._next_id = 0

    # ------------------------------------------------------------------
    # State machine helpers (all transitions happen under ``_cond``)
    # ------------------------------------------------------------------
    def set_state(self, state: str) -> None:
        with self._cond:
            self.state = state
            self._cond.notify_all()
        self.supervisor._observe_state(self)

    def _await_live(self, operation: str, deadline: float,
                    fail_fast: bool = False,
                    guard: Optional[Callable[[], bool]] = None) -> None:
        with self._cond:
            while True:
                # Re-checked on every wake-up, whatever the state: the
                # reshard machine installs the new routing tables *before*
                # it lets a parked slot go live (or leaves it STOPPED), so
                # an op that waited out a reshard re-resolves instead of
                # landing on a child that no longer owns its ride.
                if guard is not None and not guard():
                    raise Rerouted()
                if self.state == LIVE:
                    return
                if self.state == QUARANTINED:
                    raise ShardQuarantinedError(self.shard_id, operation)
                if self.state == STOPPED:
                    raise ServiceClosedError(
                        f"shard {self.shard_id} is shut down")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if fail_fast:
                        # The caller opted out of waiting for a restart
                        # (``wait_live_s``): a recovering shard is shed
                        # like an overloaded one, so fan-out searches
                        # degrade to partial instead of stalling behind
                        # WAL replay.
                        raise ShardOverloadError(self.shard_id, operation)
                    raise WorkerCrashError(
                        f"shard {self.shard_id} is {self.state}, "
                        f"not live in time for {operation}",
                        mid_op=False,
                    )
                self._cond.wait(min(remaining, 0.05))

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def rpc(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline_s: Optional[float] = None,
        idem: Optional[str] = None,
        readonly: bool = False,
        wait_live_s: Optional[float] = None,
        guard: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Call ``op`` on the shard process; deadline- and retry-aware.

        The blocking composition of the two halves of a call
        (:meth:`_send`, :meth:`_receive`).  ``wait_live_s`` bounds how long
        the call blocks waiting for a restarting shard (``0`` fails fast —
        the searcher's choice; the default waits out the caller's whole
        deadline).  Transport failures retry with jittered backoff only
        when ``readonly`` or ``idem`` says a duplicate apply is impossible;
        anything else becomes a :class:`WorkerCrashError` with ``mid_op``
        telling the caller whether the op may already be in the shard's
        WAL.  ``guard`` is the router core's routing re-check: evaluated
        after every wait for liveness and before the frame is sent (first
        attempt and retries alike); when it fails nothing was sent and
        :class:`~repro.service.stack.Rerouted` is raised.
        """
        total_s, started, deadline, live_deadline = self._window(
            deadline_s, wait_live_s)
        fail_fast = wait_live_s is not None
        attempt = 0
        while True:
            try:
                return self._receive(self._send(
                    op, args, deadline, total_s, idem, live_deadline,
                    fail_fast, guard))
            except (RpcTransportError, RpcProtocolError) as exc:
                request_sent = getattr(exc, "request_sent", True)
                if not (readonly or idem is not None or not request_sent):
                    raise WorkerCrashError(
                        f"shard {self.shard_id} connection lost mid-{op}: "
                        f"{exc}",
                        mid_op=True,
                    ) from exc
                attempt += 1
                if attempt > self.config.retry.max_retries:
                    raise WorkerCrashError(
                        f"shard {self.shard_id} {op} failed after "
                        f"{attempt} attempts: {exc}",
                        mid_op=False,
                    ) from exc
                if fail_fast:
                    # A fail-fast caller never sleeps on a dead channel:
                    # the next ``_await_live`` sheds unless the shard is
                    # already live again, so an immediate retry is cheap
                    # and a backoff would just stretch the caller's tail.
                    continue
                delay = self.config.retry.backoff_s(attempt, self.rng)
                if time.monotonic() + delay >= deadline:
                    raise DeadlineExceededError(
                        op, time.monotonic() - started, total_s) from exc
                time.sleep(delay)
                # After a crash the shard restarts behind our back;
                # retries may wait for the new generation out to the full
                # deadline (fail-fast callers shed in ``_await_live``
                # instead of stalling behind the restart's WAL replay).
                live_deadline = deadline

    def start(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline_s: Optional[float] = None,
        idem: Optional[str] = None,
        readonly: bool = False,
        wait_live_s: Optional[float] = None,
        guard: Optional[Callable[[], bool]] = None,
    ) -> Callable[[], Any]:
        """The scatter half of a fan-out: put ``op`` on the wire and return
        the callable that waits for its answer.

        A fan-out sends to every child before it waits for any, so the
        children work at the same time.  The caller must call what it gets
        back: until then the call keeps one of the shard's channels.  Only
        for calls a duplicate cannot hurt (``readonly`` or ``idem``): a
        transport or protocol failure of either half re-issues the whole
        call through :meth:`rpc`, so the retry, fail-fast and shed rules
        live there alone.  Everything ``rpc`` raises before its frame is
        sent — shed, quarantined, shut down, rerouted — is raised here.
        """
        if not readonly and idem is None:
            raise ValueError(f"{op}: only idempotent calls may be scattered")

        def reissue() -> Any:
            return self.rpc(op, args, deadline_s=deadline_s, idem=idem,
                            readonly=readonly, wait_live_s=wait_live_s,
                            guard=guard)

        total_s, _started, deadline, live_deadline = self._window(
            deadline_s, wait_live_s)
        try:
            sent = self._send(op, args, deadline, total_s, idem,
                              live_deadline, wait_live_s is not None, guard)
        except (RpcTransportError, RpcProtocolError):
            result = reissue()
            return lambda: result

        def gather() -> Any:
            try:
                return self._receive(sent)
            except (RpcTransportError, RpcProtocolError):
                return reissue()

        return gather

    def _window(self, deadline_s: Optional[float],
                wait_live_s: Optional[float]
                ) -> Tuple[float, float, float, float]:
        """``(total_s, started, deadline, live_deadline)`` of a call that
        begins now (monotonic clock)."""
        total_s = (self.config.default_deadline_s
                   if deadline_s is None else deadline_s)
        started = time.monotonic()
        deadline = started + total_s
        live_deadline = (deadline if wait_live_s is None
                         else min(deadline, started + wait_live_s))
        return total_s, started, deadline, live_deadline

    def _send(self, op: str, args: Optional[Dict[str, Any]], deadline: float,
              total_s: float, idem: Optional[str], live_deadline: float,
              fail_fast: bool,
              guard: Optional[Callable[[], bool]]) -> "_Sent":
        """First half of one attempt: wait for the shard to be live (guard
        re-checked), take a channel, stamp the request, write its frame."""
        self._await_live(op, live_deadline, fail_fast, guard)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError(op, total_s, total_s)
        pool = self._conns
        # Queue for a connection in slices: if the generation dies while
        # we wait, its pool is orphaned (dead sockets are dropped, the
        # restart installs a fresh queue) and blocking out the deadline on
        # it would stall callers behind the whole WAL recovery.  Surfacing
        # the death as an unsent transport failure lets ``rpc()`` re-await
        # liveness — or shed immediately for fail-fast callers.
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardOverloadError(self.shard_id, op)
            try:
                sock = pool.get(timeout=min(remaining, 0.05))
                break
            except queue.Empty:
                process = self.process
                dead = process is not None and process.poll() is not None
                if self._conns is not pool or self.state != LIVE or dead:
                    raise RpcTransportError(
                        f"shard {self.shard_id} restarted while queued "
                        f"for a connection", request_sent=False,
                    ) from None
        try:
            with self._id_lock:
                self._next_id += 1
                request_id = self._next_id
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(op, total_s, total_s)
            request: Dict[str, Any] = {
                "id": request_id,
                "op": op,
                "args": args or {},
                "deadline_ms": remaining * 1000.0,
            }
            if idem is not None:
                request["idem"] = idem
            sock.settimeout(max(remaining, 0.001))
            rpc_started = time.perf_counter()
            write_frame(sock, request)
        except (RpcTransportError, RpcProtocolError):
            _close_quietly(sock)  # half a frame may be on it
            raise
        except BaseException:
            self._release(pool, sock)  # nothing was written
            raise
        return _Sent(op, pool, sock, request_id, rpc_started)

    def _receive(self, sent: "_Sent") -> Any:
        """Second half: read the response frame, check it answers this
        request, give the channel back (or close it), unwrap the result."""
        op, pool, sock, request_id, rpc_started = sent
        try:
            response = read_frame(sock)
            self.supervisor._observe_rpc(
                self.shard_id, op, time.perf_counter() - rpc_started)
            if response.get("id") != request_id:
                raise RpcProtocolError(
                    f"shard {self.shard_id}: response id "
                    f"{response.get('id')!r} != request id {request_id}"
                )
        except (RpcTransportError, RpcProtocolError):
            # The channel cannot be trusted (a late response could answer
            # the next request): drop it instead of returning it.
            _close_quietly(sock)
            raise
        except BaseException:
            self._release(pool, sock)
            raise
        self._release(pool, sock)
        if response.get("ok"):
            return response.get("result")
        raise_remote_error(response, shard_id=self.shard_id, operation=op)

    def _release(self, pool: "queue.Queue[socket.socket]",
                 sock: socket.socket) -> None:
        if self._conns is pool:
            pool.put(sock)
        else:  # the shard restarted mid-call; this pool is history
            _close_quietly(sock)

    # ------------------------------------------------------------------
    # Plumbing used by the supervisor
    # ------------------------------------------------------------------
    def adopt(self, process: subprocess.Popen, generation: int,
              ops_socks: List[socket.socket],
              hb_sock: socket.socket,
              recovery: Optional[Dict[str, Any]]) -> None:
        pool: "queue.Queue[socket.socket]" = queue.Queue()
        for sock in ops_socks:
            pool.put(sock)
        now = time.monotonic()
        with self._cond:
            self.process = process
            self.generation = generation
            self._conns = pool
            self._hb_sock = hb_sock
            self.last_heartbeat = now
            self.live_since = now
            self.last_recovery = recovery
            self.restart_inflight = False
            self.state = LIVE
            self._cond.notify_all()
        self.supervisor._observe_state(self)

    def discard_channels(self) -> None:
        """Close every socket of the current generation."""
        pool = self._conns
        self._conns = queue.Queue()
        while True:
            try:
                _close_quietly(pool.get_nowait())
            except queue.Empty:
                break
        if self._hb_sock is not None:
            _close_quietly(self._hb_sock)
            self._hb_sock = None


class ShardSupervisor:
    """Spawns and supervises the process-shard fleet; the UNIX-socket
    :class:`~repro.service.transport.ShardTransport`."""

    #: The controller's load signal: parent-side RPC round-trip, which
    #: includes the child's queue wait.
    load_metric = "xar_proc_rpc_latency_seconds"

    @staticmethod
    def layout(slot: int, generation: Optional[int]) -> Tuple[str, str]:
        """Every shard generation gets its own directory under the run dir
        (``shard0/``, then ``shard0.g3/`` once a reshard rewrote the slot),
        holding that slot's WAL + checkpoint."""
        folder = (f"shard{slot}" if generation is None
                  else f"shard{slot}.g{generation}")
        return (os.path.join(folder, f"shard{slot}.wal"),
                os.path.join(folder, f"shard{slot}.ckpt"))

    def __init__(
        self,
        region: DiscretizedRegion,
        config: SupervisorConfig,
        specs: List[Optional[ShardSpec]],
        metrics: MetricsRegistry,
        *,
        search_deadline_s: float = 5.0,
    ):
        """``specs`` is the slot table to boot, indexed by slot: the lane
        and files each child serves (dictated by the routing table, i.e. by
        the topology manifest once the service has resharded); ``None``
        marks a slot merged away — a placeholder entry, no process."""
        self.region = region
        self.config = config
        if config.n_shards < 1:
            raise ValueError(
                f"n_shards must be >= 1, got {config.n_shards!r}")
        self.metrics = metrics
        self.search_deadline_s = search_deadline_s
        self.stack_config = StackConfig(
            queue_depth=config.queue_depth,
            fsync_every=config.fsync_every,
            checkpoint_every=config.checkpoint_every,
            resilient=config.resilient,
            optimize_insertion=config.optimize_insertion,
            seed=config.seed,
        )
        self.run_dir = os.path.abspath(config.run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        #: Serialises reshard actions (the monitor's restarts stay out of
        #: it: a slot parked in RESHARDING is never restarted).
        self.lock = threading.RLock()
        self._closing = threading.Event()
        self._instrument(metrics)
        self.region_dir = config.region_dir
        if self.region_dir is None:
            self.region_dir = os.path.join(self.run_dir, "region")
            if not os.path.isdir(self.region_dir):
                save_region(region, self.region_dir)
        self.shards: List[ProcShard] = []
        try:
            self._boot(specs)
        except Exception:
            self.close()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="xar-proc-monitor", daemon=True)
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _instrument(self, metrics: MetricsRegistry) -> None:
        self._c_failures = metrics.counter(
            "xar_proc_failures_total",
            "Shard process failures by kind (crash / hang / spawn)",
            labels=("shard", "kind"),
        )
        self._c_restarts = metrics.counter(
            "xar_proc_restarts_total",
            "Shard process restarts (each runs crash recovery)",
            labels=("shard",),
        )
        self._c_quarantines = metrics.counter(
            "xar_proc_quarantines_total",
            "Shards quarantined after exhausting their restart budget",
            labels=("shard",),
        )
        self._g_hb_age = metrics.gauge(
            "xar_proc_heartbeat_age_seconds",
            "Seconds since the last heartbeat from each shard process",
            labels=("shard",),
        )
        self._g_state = metrics.gauge(
            "xar_proc_shard_state",
            "Supervision state per shard (0 starting, 1 live, 2 restarting, "
            "3 quarantined, 4 stopped, 5 resharding)",
            labels=("shard",),
        )
        self._h_rpc = metrics.histogram(
            "xar_proc_rpc_latency_seconds",
            "Round-trip latency of shard RPCs",
            labels=("shard", "op"),
            buckets=DEFAULT_LATENCY_BUCKETS_S,
        )

    def _observe_state(self, shard: ProcShard) -> None:
        self._g_state.labels(shard=str(shard.shard_id)).set(
            STATE_CODES[shard.state])

    def _observe_rpc(self, shard_id: int, op: str, elapsed_s: float) -> None:
        self._h_rpc.labels(shard=str(shard_id), op=op).observe(elapsed_s)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        return env

    def _shard_paths(self, shard_id: int, generation: int) -> Dict[str, str]:
        return {
            "socket": os.path.join(
                self.run_dir, f"shard{shard_id}.g{generation}.sock"),
            "config": os.path.join(self.run_dir, f"shard{shard_id}.json"),
            "log": os.path.join(self.run_dir, f"shard{shard_id}.log"),
        }

    def _boot(self, specs: List[Optional[ShardSpec]]) -> None:
        """Bring up the first generation of every slot as a scatter/gather:
        every child is launched before any handshake is awaited, so the
        children import, recover and build their path trees at the same
        time.  A slot that cannot boot takes every launched child down with
        it (killed, socket file removed) before the error propagates."""
        launches: List[_Launch] = []
        try:
            for slot, spec in enumerate(specs):
                shard = ProcShard(slot, self.config, self)
                self.shards.append(shard)
                if spec is None:
                    shard.state = STOPPED
                    continue
                shard.spec = spec
                launches.append(self._launch(shard))
            for launch in launches:
                self._handshake(launch)
        except BaseException:
            for launch in launches:
                launch.abort()
            raise

    def _spawn(self, shard: ProcShard, count_restart: bool = False) -> None:
        """Start one shard process and wait for it to connect back.

        Raises on failure; callers decide whether that is fatal (initial
        boot) or another failure to classify (restarts).
        ``count_restart`` bumps the shard's restart counter *before* the
        new generation is published: ``adopt`` wakes every RPC blocked on
        the LIVE state, so counting afterwards raced observers that act on
        the recovered shard and then read ``restarts``.
        """
        self._handshake(self._launch(shard), count_restart)

    def _launch(self, shard: ProcShard) -> "_Launch":
        """First half of a spawn: bind the next generation's socket, write
        the child's config and start the process, without waiting for it."""
        cfg = self.config
        generation = shard.generation + 1
        paths = self._shard_paths(shard.shard_id, generation)
        if os.path.exists(paths["socket"]):
            os.unlink(paths["socket"])
        child_config = {
            "spec": dataclasses.asdict(shard.spec),
            "stack": dataclasses.asdict(self.stack_config),
            "generation": generation,
            "region_dir": self.region_dir,
            "socket_path": paths["socket"],
            "heartbeat_interval_s": cfg.heartbeat_interval_s,
            "ops_connections": cfg.ops_connections,
        }
        with open(paths["config"], "w", encoding="utf-8") as handle:
            json.dump(child_config, handle)
        launch = _Launch(
            shard, generation, paths["socket"], paths["log"],
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM),
            deadline=time.monotonic() + cfg.spawn_timeout_s,
        )
        try:
            launch.listener.bind(paths["socket"])
            launch.listener.listen(cfg.ops_connections + 1)
            with open(paths["log"], "ab") as log_handle:
                launch.process = subprocess.Popen(
                    [sys.executable, "-m", "repro.service.proc.worker",
                     paths["config"]],
                    stdout=log_handle,
                    stderr=subprocess.STDOUT,
                    env=self._child_env(),
                )
        except BaseException:
            launch.abort()
            raise
        return launch

    def _handshake(self, launch: "_Launch",
                   count_restart: bool = False) -> None:
        """Second half of a spawn: accept the child's channels, adopt the
        generation and start its heartbeat reader.  The spawn fails when
        the child exits, or has not connected back ``spawn_timeout_s`` after
        its launch; a failed handshake kills the child and removes its
        socket file."""
        cfg = self.config
        shard, generation = launch.shard, launch.generation
        ops_socks: List[socket.socket] = []
        hb_sock: Optional[socket.socket] = None
        recovery: Optional[Dict[str, Any]] = None
        launch.listener.settimeout(_ACCEPT_POLL_S)
        try:
            while len(ops_socks) < cfg.ops_connections or hb_sock is None:
                try:
                    conn, _addr = launch.listener.accept()
                except socket.timeout:
                    launch.check_booting()
                    continue
                conn.settimeout(cfg.spawn_timeout_s)
                hello = read_frame(conn)
                if hello.get("generation") != generation:
                    _close_quietly(conn)
                    continue
                if hello.get("role") == "hb":
                    hb_sock = conn
                    recovery = hello.get("recovery")
                else:
                    ops_socks.append(conn)
        except BaseException:
            for sock in ops_socks + [hb_sock]:
                if sock is not None:
                    _close_quietly(sock)
            launch.abort()
            raise
        finally:
            _close_quietly(launch.listener)
        if count_restart:
            shard.restarts += 1
            self._c_restarts.labels(shard=str(shard.shard_id)).inc()
        shard.adopt(launch.process, generation, ops_socks, hb_sock, recovery)
        threading.Thread(
            target=self._heartbeat_loop,
            args=(shard, generation, hb_sock),
            name=f"xar-proc-hb-{shard.shard_id}",
            daemon=True,
        ).start()

    def _heartbeat_loop(self, shard: ProcShard, generation: int,
                        hb_sock: socket.socket) -> None:
        try:
            # Inside the try: the socket may already be closed (the
            # generation died before this thread started).
            hb_sock.settimeout(None)
            while not self._closing.is_set():
                read_frame(hb_sock)
                if shard.generation != generation:
                    return
                shard.last_heartbeat = time.monotonic()
        except Exception:  # noqa: BLE001 - EOF/reset ends this generation
            return

    def _stop_process(self, shard: ProcShard, *, force: bool = False) -> None:
        """Bring a shard's process down and drop its channels: SIGTERM (the
        child finishes its queue and fsyncs the WAL), escalating to SIGKILL
        past the drain timeout — or SIGKILL outright with ``force``."""
        process = shard.process
        if process is not None and process.poll() is None:
            if force:
                process.kill()
            else:
                process.terminate()
                try:
                    process.wait(timeout=self.config.drain_timeout_s)
                except subprocess.TimeoutExpired:
                    process.kill()
            process.wait()
        shard.discard_channels()

    # ------------------------------------------------------------------
    # Monitoring, restarts, quarantine
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        cfg = self.config
        while not self._closing.is_set():
            now = time.monotonic()
            for shard in self.shards:
                state = shard.state
                if state == LIVE:
                    process = shard.process
                    if process is not None and process.poll() is not None:
                        self._on_failure(shard, "crash")
                        continue
                    age = now - shard.last_heartbeat
                    self._g_hb_age.labels(shard=str(shard.shard_id)).set(age)
                    if age > cfg.hang_timeout_s:
                        # Alive but silent: a wedged process is
                        # indistinguishable from a dead one to callers, so
                        # it gets the same treatment — SIGKILL + recovery.
                        self._on_failure(shard, "hang")
                    elif (shard.consecutive_failures
                          and now - shard.live_since >= cfg.stability_reset_s):
                        shard.consecutive_failures = 0
                elif state in (RESTARTING, QUARANTINED):
                    # RESTARTING: backoff elapsed.  QUARANTINED: cooldown
                    # over, one probe restart — if the probe dies too the
                    # failure count is still above the budget and the shard
                    # goes straight back in.
                    if now >= shard.next_restart_at and not shard.restart_inflight:
                        shard.restart_inflight = True
                        threading.Thread(
                            target=self._restart,
                            args=(shard,),
                            name=f"xar-proc-restart-{shard.shard_id}",
                            daemon=True,
                        ).start()
            self._closing.wait(cfg.check_interval_s)

    def _on_failure(self, shard: ProcShard, kind: str) -> None:
        """Classify a failure and schedule the shard's next life: a restart
        after exponential backoff, or quarantine once the consecutive
        failures exceed the restart budget."""
        cfg = self.config
        if kind != "spawn":
            self._stop_process(shard, force=True)
        shard.consecutive_failures += 1
        self._c_failures.labels(shard=str(shard.shard_id), kind=kind).inc()
        now = time.monotonic()
        if shard.consecutive_failures > cfg.max_restarts:
            shard.quarantines += 1
            shard.next_restart_at = now + cfg.quarantine_cooldown_s
            self._c_quarantines.labels(shard=str(shard.shard_id)).inc()
            shard.set_state(QUARANTINED)
            return
        shard.next_restart_at = now + min(
            cfg.restart_backoff_cap_s,
            cfg.restart_backoff_base_s
            * (2.0 ** (shard.consecutive_failures - 1)),
        )
        shard.set_state(RESTARTING)

    def _restart(self, shard: ProcShard) -> None:
        try:
            self._spawn(shard, count_restart=True)
        except Exception:  # noqa: BLE001 - a failed spawn is another failure
            shard.restart_inflight = False
            if not self._closing.is_set():
                self._on_failure(shard, "spawn")

    # ------------------------------------------------------------------
    # Fleet surface
    # ------------------------------------------------------------------
    def rpc(self, shard_id: int, op: str,
            args: Optional[Dict[str, Any]] = None, **kwargs: Any) -> Any:
        return self.shards[shard_id].rpc(op, args, **kwargs)

    def wait_all_live(self, timeout_s: float = 30.0) -> bool:
        """Block until every shard that should run is LIVE (True) or the
        timeout passes (merged-away slots stay STOPPED and do not count)."""
        deadline = time.monotonic() + timeout_s
        for shard in self.shards:
            with shard._cond:
                while shard.state not in (LIVE, STOPPED):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    shard._cond.wait(min(remaining, 0.05))
        return True

    def states(self) -> Dict[int, str]:
        return {shard.shard_id: shard.state for shard in self.shards}

    def recoveries(self) -> Dict[int, Dict[str, Any]]:
        """Latest per-shard recovery summaries (from spawn handshakes)."""
        return {
            shard.shard_id: shard.last_recovery
            for shard in self.shards
            if shard.state != STOPPED and shard.last_recovery is not None
        }

    def crash(self, slot: int, *, mid_book: bool = False) -> None:
        """Chaos hook: SIGKILL a shard process, or — ``mid_book`` — arm the
        child's fault hook so its *next* book dies after the WAL append but
        before the engine splice (recovery must complete it)."""
        shard = self.shards[slot]
        if mid_book:
            shard.rpc("crash", {"mode": "mid_book"}, deadline_s=5.0,
                      readonly=True)
            return
        process = shard.process
        if process is not None and process.poll() is None:
            process.kill()

    # ------------------------------------------------------------------
    # Data path (table ops marshalled through their records)
    # ------------------------------------------------------------------
    def call(self, op, slot, guard, *args, **options):
        """One table op on one slot's child.  A non-mutating op may be
        re-sent after a transport failure, a mutation only under its
        idempotency key: the recovered shard's ledger (rebuilt by WAL
        replay) answers the duplicate with the original record."""
        spec = OPS[op]
        result = self.shards[slot].rpc(
            op, spec.args.encode(args), readonly=not spec.mutates,
            idem=spec.idem_key(args), guard=guard, **options)
        return spec.decode_result(result, self.region)

    def search_many(self, slots, request, k):
        """One gatherable per slot, in ``slots`` order.

        Every search fails fast (``wait_live_s=0``): a shard that is
        mid-restart is shed like an overloaded one instead of stalling the
        fan-out.  A search of one slot is a plain ``rpc``.  A wider one is
        scattered: every frame is on the wire before the first answer is
        awaited, so the children scan at the same time.  Channels are
        taken in ascending slot order whatever order the core asked in, so
        concurrent fan-outs cannot hold one shard's last channel each while
        waiting for the other's.
        """
        args = _SEARCH.args.encode((request, k))
        options = dict(deadline_s=self.search_deadline_s, readonly=True,
                       wait_live_s=0.0)
        if len(slots) == 1:
            waits = [functools.partial(
                self.shards[slots[0]].rpc, "search", args, **options)]
        else:
            started = {slot: self._start(slot, "search", args, **options)
                       for slot in sorted(slots)}
            waits = [started[slot] for slot in slots]
        return [functools.partial(_matches, wait) for wait in waits]

    def _start(self, slot, op, args, **options):
        """``ProcShard.start``, with a refusal at send time (shed,
        quarantined, shut down) kept for the gather: the caller sorts every
        slot's outcome in one place."""
        try:
            return self.shards[slot].start(op, args, **options)
        except (XARError, WorkerCrashError) as exc:
            return functools.partial(_raise, exc)

    def track(self, slot, now_s):
        """Scatter like a wide search (the core sweeps slots in ascending
        order): the tick is accepted once its frame is sent — a slot that
        cannot take it raises here — and the returned callable waits for
        the child's sweep.  The idempotency key makes the re-issue after a
        lost connection safe; a slot that still sheds then contributes 0,
        like a thread shard that crashed mid-sweep."""
        wait = self.shards[slot].start(
            "track", _TRACK.args.encode((now_s,)),
            idem=_TRACK.idem_key((now_s,)), wait_live_s=0.0,
        )

        def sweep() -> int:
            try:
                return _TRACK.decode_result(wait())
            except _UNAVAILABLE:
                return 0

        return sweep

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, slot):
        shard = self.shards[slot]
        try:
            snapshot = self.call("stats", slot, None, deadline_s=5.0,
                                 wait_live_s=0.0)
        except _UNAVAILABLE:
            snapshot = {"unreachable": True}
        snapshot["state"] = shard.state
        snapshot["restarts"] = shard.restarts
        return snapshot

    # ------------------------------------------------------------------
    # Reshard steps
    # ------------------------------------------------------------------
    def drain(self, slot, *, force=False):
        """Take a shard down for resharding and park it out of the monitor.

        The RESHARDING state is set *first* so the monitor classifies the
        process exit as intentional rather than a crash to restart.
        Default is a graceful drain; ``force`` SIGKILLs outright — the chaos
        flavour, which must still reshard correctly off the synced WAL
        prefix.  Callers blocked in RPC wait out the reshard and re-resolve
        against the new routing tables.
        """
        shard = self.shards[slot]
        shard.set_state(RESHARDING)
        self._stop_process(shard, force=force)

    def snapshot(self, slot):
        spec = self.shards[slot].spec
        recovered = recover_engine(
            self.region, spec.wal_path, spec.ckpt_path,
            engine_factory=lambda: make_engine(
                self.region, spec, self.stack_config),
        )
        return engine_state(recovered.engine)

    def start(self, spec):
        """Spawn a slot's next generation on ``spec``'s lane and files; a
        slot id one past the table brings a brand-new slot into the fleet."""
        if spec.slot == len(self.shards):
            # Publish the entry before spawning: _observe_state and the
            # monitor index self.shards by id (append is atomic under the
            # GIL), and STARTING is a state the monitor leaves alone.
            self.shards.append(ProcShard(spec.slot, self.config, self))
        shard = self.shards[spec.slot]
        shard.spec = spec
        shard.consecutive_failures = 0
        self._spawn(shard)

    def resume(self, slot):
        """Abort path: the old files are untouched (the carve only read
        them), so the old generation recovers exactly where it left off."""
        self.start(self.shards[slot].spec)

    def retire(self, slot, heir):
        """A merged-away slot stays STOPPED for good: no process, no
        restarts; callers parked on it re-resolve to ``heir``."""
        del heir  # callers carry no queue here: they wait, then re-route
        self.shards[slot].set_state(STOPPED)

    def close(self, *, force: bool = False) -> None:
        """Drain and stop the fleet: SIGTERM (graceful drain in the child,
        finishing queued mutations and syncing the WAL), escalate to
        SIGKILL only past the drain timeout."""
        self._closing.set()
        monitor = getattr(self, "_monitor_thread", None)
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=self.config.check_interval_s * 20 + 1.0)
        for shard in self.shards:
            shard.set_state(STOPPED)
            self._stop_process(shard, force=force)
        for shard in self.shards:
            for generation in range(1, shard.generation + 1):
                path = self._shard_paths(shard.shard_id,
                                         generation)["socket"]
                if os.path.exists(path):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    def abandon(self) -> None:
        """Process-death teardown: SIGKILL every child, no drain."""
        self.close(force=True)


def _matches(wait: Callable[[], Any]) -> List[Any]:
    return _SEARCH.decode_result(wait())


def _raise(exc: BaseException) -> Any:
    raise exc


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
