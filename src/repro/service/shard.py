"""One shard: an engine adapter behind admission control and the turn.

Every job a shard runs — search, mutation, admin read, tracking tick — runs
on the thread that asked for it.  :meth:`ShardWorker.execute_inline`
returns the job's result; :meth:`ShardWorker.submit` returns a finished
future holding it, and :meth:`ShardWorker.call` unwraps that.  There is no
queue and no worker thread: every engine op in the interpreter takes one
turn anyway (below), so handing a job to another thread would only add two
thread switches.  A thread shard and a shard child
(``service/proc/worker.py``, whose connection threads serve every op) run
their jobs the same way.

Admission comes first.  At most ``queue_depth`` jobs of a shard are
admitted and not yet finished; the next one is refused at once with
:class:`~repro.exceptions.ShardOverloadError` instead of waiting.  That
refusal is the service's load-shed response; callers count it against the
shed-rate SLO rather than retrying blindly.  Every caller blocks on its
own job, so one caller's jobs reach a shard in the order it issued them,
and jobs of different callers are linearised by the turn.

**One engine op at a time per interpreter.**  Every job a worker runs, on
any shard of the process, first takes :data:`ENGINE_TURN`, a process-wide
lock.  An engine op is a few hundred short numpy calls, each of which drops
the GIL; two ops "overlapping" on one interpreter therefore trade it ~100
times per search and both finish later than if they had taken turns
(measured on a 2-shard router: one thread 1 300 searches/s, two threads
555/s in total, two threads taking turns 1 300/s — docs/service.md).  The
turn is taken *after* admission (shedding is untouched) and *before* the
service clock starts, so waiting for it is queue wait, never service time.
A job holds the turn from admission to finish: nothing inside an op gives
it away, so the turn holds one op at a time and the ops of an interpreter
are linearised in the order they took it.  WAL fsyncs and checkpoints
happen inside the turn (at most one ~2.4 ms fsync per ``fsync_every`` = 64
appends).

A fan-out search over several shards is one job for all of them
(:func:`serve_pass`): each shard admits it, the turn is taken once, and
each shard counts it as one of its own jobs.

**The turn's threads run on one CPU.**  While a thread transport is open
(:meth:`_Turn.place`), each thread that takes the turn is bound to one CPU
the first time it does so: the lowest CPU the placement's first binder was
allowed.  Handing the turn over then wakes a thread on the same core
instead of the other one.  When the last thread transport closes or is
abandoned, every bound thread still alive gets its old mask back.  A
process that opens no thread transport (a shard child, a bare
:class:`ShardWorker`) binds nothing.  A shard child is started on its
slot's CPU of its launcher's unbound mask (:meth:`_Turn.slot_cpu`), so it
runs there from birth.  Binding is best effort: a thread or child it fails
for runs unbound.  One thread-mode interpreter therefore uses one core.

Observability: given a :class:`~repro.obs.MetricsRegistry` the worker
reports the jobs in flight (gauge ``xar_shard_queue_depth``), queue **wait**
time vs **service** time (histograms — the classic "is latency the queue or
the work?" split; the wait is the wait for the turn) and completed/shed/
errored jobs per operation (counters), all labelled with the shard id.  The
legacy :class:`ShardStats` counters remain and are always maintained; read
them race-free via :meth:`ShardWorker.stats_snapshot`.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import (
    ServiceClosedError,
    ShardOverloadError,
    WorkerCrashError,
)
from ..obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry


@dataclass
class ShardStats:
    """Counters one shard accumulates over its lifetime."""

    #: Jobs executed per operation name (serialised by the worker's stats
    #: lock).
    completed: Dict[str, int] = field(default_factory=dict)
    #: Jobs refused at admission per operation name.
    shed: Dict[str, int] = field(default_factory=dict)
    #: Jobs that raised (the error still reaches the caller).
    errors: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "completed": dict(self.completed),
            "shed": dict(self.shed),
            "errors": dict(self.errors),
        }


class _Turn:
    """The interpreter's turn: at most one engine op executes at a time.

    Not re-entrant — a job that asks for the turn it already holds (an op
    calling back into a shard worker) would wait for itself forever, so it
    raises instead.

    While at least one placement is open (:meth:`place`, one per open
    thread transport), every thread that takes the turn is bound to one CPU
    the first time it does so, and gets its old mask back when the last
    placement closes (:meth:`unplace`).  Binding is best effort: where it
    fails, or the platform has no ``os.sched_setaffinity``, the op runs on
    an unbound thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holder: Optional[int] = None
        #: Placement state, guarded by ``_place_lock`` (taken inside the
        #: turn when binding, alone when placing — never the other way).
        self._place_lock = threading.Lock()
        self._placements = 0
        self._generation = 0
        self._cpu: Optional[int] = None
        self._first_mask: Optional[frozenset] = None
        #: Thread -> the mask it had before it was bound.
        self._saved: Dict[threading.Thread, frozenset] = {}
        #: Per thread: the generation it last tried to bind under.
        self._local = threading.local()

    def acquire(self) -> None:
        me = threading.get_ident()
        if self._holder == me:
            raise RuntimeError(
                "engine turn requested by the thread that already holds it"
            )
        self._lock.acquire()
        self._holder = me
        if (self._placements
                and getattr(self._local, "generation", None)
                != self._generation):
            self._bind()

    # ------------------------------------------------------------------
    # CPU placement
    # ------------------------------------------------------------------
    def place(self) -> None:
        """Open a placement: threads taking the turn are bound from now."""
        with self._place_lock:
            if self._placements == 0:
                self._generation += 1
            self._placements += 1

    def unplace(self) -> None:
        """Close a placement; the last one gives every thread it bound its
        old mask back (threads that have exited are skipped)."""
        with self._place_lock:
            self._placements -= 1
            if self._placements:
                return
            self._generation += 1
            for thread, mask in self._saved.items():
                if thread.is_alive():
                    try:
                        os.sched_setaffinity(thread.native_id, mask)
                    except OSError:
                        pass  # exited since (ESRCH) or mask gone (EINVAL)
            self._saved.clear()

    def _unbound_mask(self, mask: frozenset) -> frozenset:
        """What a thread now on ``mask`` had before any placement bound
        it: its saved mask, else — a thread started by a bound thread
        inherits the one-CPU mask, and keeps it after the placement closes —
        the last placement's first binder's, else ``mask`` itself."""
        saved = self._saved.get(threading.current_thread())
        if saved is not None:
            return saved
        if self._first_mask is not None and mask == {self._cpu}:
            return self._first_mask
        return mask

    def _bind(self) -> None:
        """Bind the calling thread (holding the turn) to the placement's
        CPU, once per thread and placement; any failure leaves it unbound."""
        with self._place_lock:
            self._local.generation = self._generation
            if not self._placements or not hasattr(os, "sched_setaffinity"):
                return
            first = not self._saved  # the placement's first binder
            try:
                mask = frozenset(os.sched_getaffinity(0))
                old = self._unbound_mask(mask)
                cpu = min(old) if first else self._cpu
                os.sched_setaffinity(0, {cpu})
            except OSError:
                return
            if first:
                self._cpu, self._first_mask = cpu, old
            self._saved[threading.current_thread()] = old

    def slot_cpu(self, slot: int) -> "contextlib.AbstractContextManager[None]":
        """Run the block on the one CPU a process shard's ``slot`` is placed
        on — ``sorted(allowed)[slot % len(allowed)]`` of the calling
        thread's unbound mask — so a child started inside it, and every
        thread that child starts, runs there from birth.  Where that mask
        is refused, the block runs on the unbound mask instead."""
        def pick(allowed: frozenset) -> frozenset:
            cpus = sorted(allowed)
            return frozenset({cpus[slot % len(cpus)]})

        return self._launch_mask(pick)

    @contextlib.contextmanager
    def _launch_mask(
        self, pick: Callable[[frozenset], frozenset]
    ) -> Iterator[None]:
        """Swap the calling thread onto ``pick(its unbound mask)`` for the
        block (best effort: the unbound mask if that is refused, the
        current one if both are), then back."""
        restore = old = None  # restore: the mask to put back once swapped
        with self._place_lock:
            generation = self._generation
            try:
                mask = frozenset(os.sched_getaffinity(0))
                old = self._unbound_mask(mask)
                for want in (pick(old), old):
                    if want == mask:
                        break
                    try:
                        os.sched_setaffinity(0, want)
                    except OSError:
                        continue
                    restore = mask
                    break
            except (AttributeError, OSError):
                pass
        try:
            yield
        finally:
            if restore is not None:
                with self._place_lock:
                    # A placement that closed meanwhile ended the binding:
                    # the thread goes back to its unbound mask instead.
                    if self._generation != generation:
                        restore = old
                    try:
                        os.sched_setaffinity(0, restore)
                    except OSError:
                        pass

    def release(self) -> None:
        self._holder = None
        self._lock.release()

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *_exc: Any) -> None:
        self.release()


#: Process-wide because the interpreter is: one lock for every worker of
#: every router and transport in this process.
ENGINE_TURN = _Turn()


class ShardWorker:
    """Admission control and the turn in front of one shard's adapter:
    every job runs on the thread that asked for it."""

    def __init__(
        self,
        shard_id: int,
        adapter: Any,
        queue_depth: int = 128,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth!r}")
        self.shard_id = shard_id
        self.adapter = adapter
        self.queue_depth = queue_depth
        #: Shard-scoped RNG (derived from the root seed by the router);
        #: anything stochastic a shard does draws from here so runs replay.
        self.rng = random.Random(seed)
        self.stats = ShardStats()
        #: Jobs admitted and not yet finished, at most ``queue_depth``.
        #: Guarded by ``_lock``.  ``close`` and ``retire`` wait on ``_idle``
        #: (over the same lock), which is notified only while one of them
        #: is waiting (``_draining``).
        self._in_flight = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._draining = 0
        self._stats_lock = threading.Lock()
        self._closed = False
        #: Set when a job died on a :class:`WorkerCrashError` or the worker
        #: was retired: no job starts against this engine any more.
        self.crashed = False
        #: Registry instruments (None when the worker is uninstrumented).
        self._m_ops = self._m_depth = self._m_wait = self._m_service = None
        if metrics is not None:
            shard_label = str(shard_id)
            self._m_ops = metrics.counter(
                "xar_shard_ops_total",
                "Shard jobs by operation and outcome (completed/shed/error)",
                labels=("shard", "op", "outcome"),
            )
            self._m_depth = metrics.gauge(
                "xar_shard_queue_depth",
                "Jobs admitted to the shard and not yet finished",
                labels=("shard",),
            ).labels(shard=shard_label)
            self._m_wait = metrics.histogram(
                "xar_shard_queue_wait_seconds",
                "Time a job waited before running: from admission to the "
                "interpreter's turn",
                labels=("shard",),
                buckets=DEFAULT_LATENCY_BUCKETS_S,
            ).labels(shard=shard_label)
            self._m_service = metrics.histogram(
                "xar_shard_service_seconds",
                "Time a job spent executing on the shard (queue wait excluded)",
                labels=("shard", "op"),
                buckets=DEFAULT_LATENCY_BUCKETS_S,
            )
        self._shard_label = str(shard_id)
        #: Labelled children of the op counter and the service histogram,
        #: by ``(operation, outcome)`` (outcome "service" for the latter).
        self._children: Dict[Tuple[str, str], Any] = {}

    # ------------------------------------------------------------------
    # Stats plumbing (legacy counters + registry, one call site each)
    # ------------------------------------------------------------------
    def _child(self, operation: str, outcome: str) -> Any:
        """The registry child an ``operation``'s ``outcome`` is counted in
        (``"service"``: its service-time histogram), resolved once."""
        child = self._children.get((operation, outcome))
        if child is None:
            if outcome == "service":
                child = self._m_service.labels(
                    shard=self._shard_label, op=operation)
            else:
                child = self._m_ops.labels(
                    shard=self._shard_label, op=operation, outcome=outcome)
            self._children[(operation, outcome)] = child
        return child

    def _count(self, bucket: Dict[str, int], operation: str,
               outcome: str) -> None:
        with self._stats_lock:
            bucket[operation] = bucket.get(operation, 0) + 1
        if self._m_ops is not None:
            self._child(operation, outcome).inc()

    @property
    def in_flight(self) -> int:
        """Jobs admitted and not yet finished (racy read, load signal)."""
        return self._in_flight

    def stats_snapshot(self) -> Dict[str, Any]:
        """Race-free copy of the legacy counters (dicts copied under the
        stats lock, so a concurrent increment can never be observed
        mid-resize)."""
        with self._stats_lock:
            return self.stats.as_dict()

    # ------------------------------------------------------------------
    # Running a job (any thread)
    # ------------------------------------------------------------------
    def submit(self, operation: str, fn: Callable[[], Any]) -> "Future[Any]":
        """Run ``fn`` now, on the calling thread, in its turn; returns a
        finished future holding its result or the exception it raised.

        Refusals raise instead: :class:`ShardOverloadError` (shed),
        :class:`ServiceClosedError`, and :class:`WorkerCrashError` with
        ``mid_op=False`` — the job never started, safe to retry elsewhere —
        when the worker is dead; the transport's failover turns that into a
        recover-and-retry.
        """
        self._admit(operation)
        future: "Future[Any]" = Future()
        try:
            future.set_result(self._serve(operation, fn))
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            future.set_exception(exc)
        return future

    def call(self, operation: str, fn: Callable[[], Any]) -> Any:
        """:meth:`submit` and unwrap: the job's result, or its exception
        raised."""
        return self.submit(operation, fn).result()

    def execute_inline(self, operation: str, fn: Callable[[], Any]) -> Any:
        """:meth:`submit` without the future: the read path of every
        transport and every op of a shard child."""
        self._admit(operation)
        return self._serve(operation, fn)

    def _dead(self) -> WorkerCrashError:
        # The in-memory engine may be behind its own write-ahead log (e.g.
        # a booking logged but never spliced); answers from it would
        # diverge from the recovered state, so every op fails over.
        return WorkerCrashError(
            f"shard {self.shard_id} worker is dead", mid_op=False)

    def _admit(self, operation: str) -> None:
        """Count a job in, or refuse it: shut down, dead, or shed when
        ``queue_depth`` jobs are already in flight."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"shard {self.shard_id} is shut down")
            if self.crashed:
                raise self._dead()
            if self._in_flight >= self.queue_depth:
                self._count(self.stats.shed, operation, "shed")
                raise ShardOverloadError(self.shard_id, operation)
            self._in_flight += 1
            if self._m_depth is not None:
                self._m_depth.set(self._in_flight)

    def _serve(self, operation: str, fn: Callable[[], Any]) -> Any:
        """Run an admitted job in the caller's turn, then count it out.

        A job that takes the turn after the worker died or was retired
        bounces unstarted.  A :class:`WorkerCrashError` out of ``fn`` marks
        the worker crashed before the turn is given away, so no later job
        runs against an engine that may be behind its own WAL.
        """
        admitted = time.perf_counter()
        try:
            with ENGINE_TURN:
                if self.crashed:
                    raise self._dead()
                # Everything since admission was queue wait; service starts.
                started = time.perf_counter()
                if self._m_wait is not None:
                    self._m_wait.observe(started - admitted)
                try:
                    result = fn()
                except WorkerCrashError as exc:
                    exc.mid_op = True
                    self.crashed = True
                    raise
        except BaseException:
            self._release(operation, None)
            raise
        self._release(operation, time.perf_counter() - started)
        return result

    def _release(self, operation: str, service_s: Optional[float]) -> None:
        """Count an admitted job out — completed after ``service_s``
        seconds, or (None) errored or bounced — and free its place."""
        try:
            if service_s is None:
                self._count(self.stats.errors, operation, "error")
            else:
                self._count(self.stats.completed, operation, "completed")
                if self._m_service is not None:
                    self._child(operation, "service").observe(service_s)
        finally:
            with self._lock:
                self._in_flight -= 1
                if self._m_depth is not None:
                    self._m_depth.set(self._in_flight)
                if not self._in_flight and self._draining:
                    self._idle.notify_all()

    # ------------------------------------------------------------------
    # Retirement and shutdown
    # ------------------------------------------------------------------
    def retire(self, timeout_s: float = 5.0) -> None:
        """Stop a healthy worker for a reshard: mark it crashed, so a job
        that has not started bounces to its caller (whose failover blocks
        on the reshard lock, then re-resolves routing under the new epoch),
        and wait (within ``timeout_s``) for the job holding the turn to
        finish against the old engine."""
        with self._idle:
            self.crashed = True
            self._drain(timeout_s)

    def close(self, timeout_s: float = 5.0) -> None:
        """Admit nothing more and wait (within ``timeout_s``) for the jobs
        already admitted to finish."""
        with self._idle:
            self._closed = True
            self._drain(timeout_s)

    def _drain(self, timeout_s: float) -> None:
        """Wait (holding ``_idle``) until no job is in flight."""
        self._draining += 1
        try:
            self._idle.wait_for(lambda: not self._in_flight, timeout_s)
        finally:
            self._draining -= 1


def serve_pass(
    workers: Sequence[ShardWorker],
    operation: str,
    fn: Callable[[List[int]], Any],
) -> Tuple[Any, Optional[Exception], List[Optional[BaseException]]]:
    """Run one job for several shards in one turn (a fan-out search pass).

    Each worker admits the job as :meth:`ShardWorker.submit` would.  One
    that refuses it (shed, shut down, dead) or is found dead or retired
    when the turn is taken is left out; the refusal is returned in its
    place, and a bounce is counted as that worker's error, as
    :meth:`ShardWorker.submit` counts it.  ``fn`` is called once, in the
    turn, with the positions of the workers that take part, and its outcome
    is each of theirs: one job of ``operation`` counted completed or
    errored, queue wait from admission to the pass's turn and service time
    the pass's.  A :class:`WorkerCrashError` out of ``fn`` marks every one
    of them crashed.

    Returns ``(result, error, refusals)``: what ``fn`` returned or raised
    (both None when no worker took part), and per worker its refusal or
    None.
    """
    refusals: List[Optional[BaseException]] = [None] * len(workers)
    for i, worker in enumerate(workers):
        try:
            worker._admit(operation)
        except (ServiceClosedError, ShardOverloadError, WorkerCrashError) as exc:
            refusals[i] = exc
    admitted = [i for i, refusal in enumerate(refusals) if refusal is None]
    result = error = service_s = None
    if not admitted:
        return result, error, refusals
    queued = time.perf_counter()
    try:
        with ENGINE_TURN:
            started = time.perf_counter()
            for i in admitted:
                worker = workers[i]
                if worker.crashed:
                    refusals[i] = worker._dead()
                elif worker._m_wait is not None:
                    worker._m_wait.observe(started - queued)
            taking = [i for i in admitted if refusals[i] is None]
            if taking:
                try:
                    result = fn(taking)
                    service_s = time.perf_counter() - started
                except WorkerCrashError as exc:
                    exc.mid_op = True
                    for i in taking:
                        workers[i].crashed = True
                    error = exc
                except Exception as exc:  # noqa: BLE001 - relayed to the caller
                    error = exc
    finally:
        for i in admitted:
            workers[i]._release(
                operation, service_s if refusals[i] is None else None)
    return result, error, refusals
