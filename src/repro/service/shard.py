"""One shard: an engine adapter behind a bounded queue and an inline path.

Mutations (create / book / cancel / track) of a thread shard run on the
shard's single worker thread, so write ordering per shard needs no
cross-thread coordination beyond the queue itself.  The queue is
*bounded*: when it is full, :meth:`ShardWorker.submit` refuses the job
immediately with :class:`~repro.exceptions.ShardOverloadError` instead of
buffering unbounded backlog.  That refusal is the service's load-shed
response; callers count it against the shed-rate SLO rather than retrying
blindly.  The worker thread is started by the first job queued, so a
worker that never queues one has none.

Reads take a different road: :meth:`ShardWorker.execute_inline` runs the
job in the *calling* thread, synchronised by the turn and the engine's own
lock rather than the queue.  A queue round-trip costs two thread hand-offs
— several GIL scheduling quanta under load, an order of magnitude more
than a small cluster search — so pushing every fan-out read through the
mailbox would drown the win of searching 1/N of the supply.  Inline jobs
are still admission-controlled: a semaphore with the same ``queue_depth``
bound refuses (sheds) jobs beyond the shard's concurrency budget.  A shard
child serves *every* op this way (``service/proc/worker.py``): there the
connection thread that read an op runs it, and no worker thread starts.

**One engine op at a time per interpreter.**  Every job a worker runs —
inline or queued, on any shard of the process — first takes
:data:`ENGINE_TURN`, a process-wide lock.  An engine op is a few hundred
short numpy calls, each of which drops the GIL; two ops "overlapping" on
one interpreter therefore trade it ~100 times per search and both finish
later than if they had taken turns (measured on a 2-shard router: one
thread 1 300 searches/s, two threads 555/s in total, two threads taking
turns 1 300/s — docs/service.md).  The turn is taken *after* admission
(read gate, bounded queue — shedding and per-shard FIFO order are
untouched) and *before* the service clock starts, so waiting for it is
queue wait, never service time.  WAL fsyncs and checkpoints happen inside
the turn (at most one ~2.4 ms fsync per ``fsync_every`` = 64 appends); the
resilient runtime's retry backoff does not (:meth:`_Turn.sleep`).

**The turn's threads run on one CPU.**  While a thread transport is open
(:meth:`_Turn.place`), each thread that takes the turn — shard workers and
every caller thread that reads inline — is bound to one CPU the first time
it does so: the lowest CPU the placement's first binder was allowed.
Handing the turn over then wakes a thread on the same core instead of the
other one.  When the last thread transport closes or is abandoned, every
bound thread still alive gets its old mask back.  A process that opens no
thread transport (a shard child, a bare :class:`ShardWorker`) binds
nothing.  A shard child is started on its slot's CPU of its launcher's
unbound mask (:meth:`_Turn.slot_cpu`), so it runs there from birth.
Binding is best effort: a thread or child it fails for runs unbound.  One
thread-mode interpreter therefore uses one core.

Observability: given a :class:`~repro.obs.MetricsRegistry` the worker
reports queue depth (gauge), queue **wait** time vs **service** time
(histograms — the classic "is latency the queue or the work?" split; the
wait includes the wait for the turn) and completed/shed/errored jobs per
operation (counters), all labelled with the shard id.  The legacy
:class:`ShardStats` counters remain and are always maintained; read them
race-free via :meth:`ShardWorker.stats_snapshot`.
"""

from __future__ import annotations

import contextlib
import os
import queue
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

from ..exceptions import (
    ServiceClosedError,
    ShardOverloadError,
    WorkerCrashError,
)
from ..obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry


@dataclass
class ShardStats:
    """Counters one shard accumulates over its lifetime."""

    #: Jobs executed per operation name (worker thread + inline readers,
    #: serialised by the worker's stats lock).
    completed: Dict[str, int] = field(default_factory=dict)
    #: Jobs refused at admission per operation name.
    shed: Dict[str, int] = field(default_factory=dict)
    #: Jobs that raised (the error still reaches the caller).
    errors: Dict[str, int] = field(default_factory=dict)
    queue_peak: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "completed": dict(self.completed),
            "shed": dict(self.shed),
            "errors": dict(self.errors),
            "queue_peak": self.queue_peak,
        }


class _Job:
    __slots__ = ("operation", "fn", "future", "enqueued_at")

    def __init__(self, operation: str, fn: Callable[[], Any], future: Future,
                 enqueued_at: float):
        self.operation = operation
        self.fn = fn
        self.future = future
        self.enqueued_at = enqueued_at


_STOP = object()


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

    def unbound(self) -> "contextlib.AbstractContextManager[None]":
        """Run the block on the calling thread's unbound mask: a process
        started inside it inherits that mask, not the placement's CPU."""
        return self._launch_mask(lambda allowed: allowed)

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

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` that gives the turn away while it sleeps (the
        resilient runtime's retry backoff: 20–500 ms in which another
        shard's op can run).  Plain sleep for a thread without the turn."""
        if self._holder != threading.get_ident():
            time.sleep(seconds)
            return
        self.release()
        try:
            time.sleep(seconds)
        finally:
            self.acquire()


#: Process-wide because the interpreter is: one lock for every worker of
#: every router and transport in this process.
ENGINE_TURN = _Turn()


class ShardWorker:
    """A single-threaded executor owning one shard's engine adapter."""

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
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        #: Concurrency budget for the inline read path (same bound as the
        #: write queue, enforced without a worker hand-off).
        self._read_gate = threading.Semaphore(queue_depth)
        #: Inline jobs admitted and not yet finished; ``close`` waits on
        #: ``_idle`` for them, and admission re-checks ``_closed`` under it.
        self._in_flight = 0
        self._idle = threading.Condition()
        self._stats_lock = threading.Lock()
        self._closed = False
        #: Set when the worker thread died on a :class:`WorkerCrashError`.
        #: Guarded by ``_submit_lock`` on the mutation path so a submitter
        #: can never slip a job past a concurrent failover's queue drain.
        self.crashed = False
        self._submit_lock = threading.Lock()
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
                "Jobs currently waiting in the shard's bounded queue",
                labels=("shard",),
            ).labels(shard=shard_label)
            self._m_wait = metrics.histogram(
                "xar_shard_queue_wait_seconds",
                "Time a job waited before running: in the shard queue and "
                "for the interpreter's turn",
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
        #: The worker thread, started by the first job queued (under the
        #: submit lock): a worker whose jobs all run inline — a shard
        #: child's — never starts one.
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Stats plumbing (legacy counters + registry, one call site each)
    # ------------------------------------------------------------------
    def _count(self, bucket: Dict[str, int], operation: str,
               outcome: str) -> None:
        with self._stats_lock:
            bucket[operation] = bucket.get(operation, 0) + 1
        if self._m_ops is not None:
            self._m_ops.labels(
                shard=self._shard_label, op=operation, outcome=outcome
            ).inc()

    @property
    def depth(self) -> int:
        """Jobs currently waiting in the queue (racy read, load signal)."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Inline jobs admitted and not yet finished (racy read)."""
        return self._in_flight

    def stats_snapshot(self) -> Dict[str, Any]:
        """Race-free copy of the legacy counters (dicts copied under the
        stats lock, so a concurrent increment can never be observed
        mid-resize)."""
        with self._stats_lock:
            return self.stats.as_dict()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, operation: str, fn: Callable[[], Any]) -> "Future[Any]":
        """Enqueue a job; sheds immediately when the queue is full.

        Raises :class:`~repro.exceptions.WorkerCrashError` (``mid_op=False``
        — the job never started, safe to retry elsewhere) when the worker
        thread has died; the router's failover supervisor turns that into a
        recover-and-retry.
        """
        future: "Future[Any]" = Future()
        job = _Job(operation, fn, future, time.perf_counter())
        with self._submit_lock:
            if self._closed:
                raise ServiceClosedError(f"shard {self.shard_id} is shut down")
            if self.crashed:
                raise WorkerCrashError(
                    f"shard {self.shard_id} worker is dead", mid_op=False
                )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self._count(self.stats.shed, operation, "shed")
                raise ShardOverloadError(self.shard_id, operation) from None
            self._start_thread()
        depth = self._queue.qsize()
        if depth > self.stats.queue_peak:
            self.stats.queue_peak = depth
        if self._m_depth is not None:
            self._m_depth.set(depth)
        return future

    def _start_thread(self) -> None:
        """Start the worker thread if no job has yet (submit lock held)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"xar-shard-{self.shard_id}",
                daemon=True)
            self._thread.start()

    def call(self, operation: str, fn: Callable[[], Any]) -> Any:
        """Submit and wait: the synchronous single-shard path."""
        return self.submit(operation, fn).result()

    def execute_inline(self, operation: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` in the caller's thread, in its turn: no hand-off.

        The read fast path of every transport, and the only path of a shard
        child, whose connection threads serve every op this way.  Sheds
        with :class:`ShardOverloadError` when the shard's concurrency
        budget — ``queue_depth`` simultaneous inline jobs — is exhausted.
        A :class:`WorkerCrashError` out of ``fn`` marks the worker crashed
        before the turn is given away, so no later job runs against an
        engine that may be behind its own WAL.
        """
        if self._closed:
            raise ServiceClosedError(f"shard {self.shard_id} is shut down")
        if self.crashed:
            # The in-memory engine may be behind its own write-ahead log
            # (e.g. a booking logged but never spliced); answers from it
            # would diverge from the recovered state, so reads fail over too.
            raise WorkerCrashError(
                f"shard {self.shard_id} worker is dead", mid_op=False
            )
        if not self._read_gate.acquire(blocking=False):
            self._count(self.stats.shed, operation, "shed")
            raise ShardOverloadError(self.shard_id, operation)
        with self._idle:
            if self._closed:
                self._read_gate.release()
                raise ServiceClosedError(
                    f"shard {self.shard_id} is shut down")
            self._in_flight += 1
        admitted = time.perf_counter()
        try:
            with ENGINE_TURN:
                if self.crashed:
                    raise WorkerCrashError(
                        f"shard {self.shard_id} worker is dead", mid_op=False
                    )
                started = self._service_begins(admitted)
                try:
                    result = fn()
                except WorkerCrashError as exc:
                    exc.mid_op = True
                    self.crashed = True
                    raise
        except BaseException:
            self._count(self.stats.errors, operation, "error")
            raise
        else:
            self._count(self.stats.completed, operation, "completed")
            if self._m_service is not None:
                self._m_service.labels(
                    shard=self._shard_label, op=operation
                ).observe(time.perf_counter() - started)
            return result
        finally:
            self._read_gate.release()
            with self._idle:
                self._in_flight -= 1
                if not self._in_flight:
                    self._idle.notify_all()

    def _service_begins(self, waiting_since: float) -> float:
        """Called with the turn just taken: books everything since admission
        as queue wait and starts the service clock."""
        started = time.perf_counter()
        if self._m_wait is not None:
            self._m_wait.observe(started - waiting_since)
        return started

    # ------------------------------------------------------------------
    # Worker loop (the shard thread)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                break
            if self._m_depth is not None:
                self._m_depth.set(self._queue.qsize())
            if not job.future.set_running_or_notify_cancel():
                continue
            try:
                with ENGINE_TURN:
                    started = self._service_begins(job.enqueued_at)
                    result = job.fn()
            except WorkerCrashError as exc:
                # The worker "process" died mid-operation.  Flag the crash
                # (mid_op: the op may already be in the WAL and must not be
                # retried), relay it, and stop the loop WITHOUT draining the
                # queue — pending jobs stay put for the failover supervisor
                # to re-route or shed.
                exc.mid_op = True
                self.crashed = True
                self._count(self.stats.errors, job.operation, "error")
                job.future.set_exception(exc)
                break
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                self._count(self.stats.errors, job.operation, "error")
                job.future.set_exception(exc)
            else:
                self._count(self.stats.completed, job.operation, "completed")
                if self._m_service is not None:
                    self._m_service.labels(
                        shard=self._shard_label, op=job.operation
                    ).observe(time.perf_counter() - started)
                job.future.set_result(result)

    # ------------------------------------------------------------------
    # Failover support (called by the router's supervisor)
    # ------------------------------------------------------------------
    def _take_pending(self, *, stop: bool) -> "list[_Job]":
        """Atomically mark the worker crashed and take its queued jobs.

        Holding the submit lock while draining closes the race with
        concurrent submitters: after this returns, no job can ever reach
        this worker's queue again.

        The returned list is **FIFO by submission**: per-shard write
        ordering is part of the service's contract (a create must not jump
        a cancel that was accepted before it), and the caller requeues
        these jobs verbatim, so any reordering here would survive into the
        successor shard.  Queue drain order already is submission order;
        the sort by enqueue timestamp makes the guarantee explicit and
        self-enforcing rather than an accident of ``queue.Queue`` internals.
        """
        with self._submit_lock:
            self.crashed = True
            pending = []
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not _STOP:
                    pending.append(job)
            pending.sort(key=lambda job: job.enqueued_at)
            if stop:
                # The queue was just emptied under the submit lock, so there
                # is room for the sentinel; the worker thread exits after it.
                self._queue.put_nowait(_STOP)
            if self._m_depth is not None:
                self._m_depth.set(0)
            return pending

    def drain_pending(self) -> "list[_Job]":
        """Failover: take the queued jobs of a worker whose thread died."""
        return self._take_pending(stop=False)

    def retire(self) -> "list[_Job]":
        """Stop a *healthy* worker for migration and take its queued jobs.

        The elastic-resharding path needs what :meth:`drain_pending` gives a
        failover, but for a worker whose thread is alive and must be
        *stopped*, not merely abandoned.  Marking the worker crashed
        redirects concurrent submitters into the transport's failover path
        (where they block on the reshard lock and then re-resolve routing
        under the new epoch); the stop sentinel lets the thread finish its
        in-flight job against the old engine — whose WAL is synced before
        the swap — and exit.  Caller joins, then requeues the returned jobs
        on the successor worker(s).
        """
        return self._take_pending(stop=True)

    def resubmit(self, job: _Job) -> bool:
        """Requeue a drained job (its original future included) on this
        worker; False when the queue is full (caller sheds the job)."""
        with self._submit_lock:
            if self._closed or self.crashed:
                return False
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                return False
            self._start_thread()
        if self._m_depth is not None:
            self._m_depth.set(self._queue.qsize())
        return True

    def join(self, timeout_s: float = 5.0) -> None:
        """Wait for the worker thread to exit (crashed workers: no-op soon)."""
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout_s: float = 5.0) -> None:
        """Stop accepting work, drain the queue, join the thread, and wait
        (within ``timeout_s``) for the inline jobs already admitted."""
        if self._closed:
            return
        with self._submit_lock, self._idle:
            self._closed = True
            started = self._thread is not None
        if started and not self.crashed:
            self._queue.put(_STOP)  # blocks until there is room: queue drains
        self.join(timeout_s)
        with self._idle:
            self._idle.wait_for(lambda: not self._in_flight, timeout_s)
