"""ShardWorker: every job on its caller's thread, bounded admission,
explicit shed."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import ServiceClosedError, ShardOverloadError
from repro.service import ShardWorker

from .proc.conftest import await_until


class _Recorder:
    """Stand-in adapter recording which thread ran each job."""

    def __init__(self):
        self.threads = set()

    def work(self, value):
        self.threads.add(threading.current_thread().name)
        return value * 2


@pytest.fixture
def worker():
    recorder = _Recorder()
    worker = ShardWorker(0, recorder, queue_depth=4, seed=1)
    yield worker, recorder
    worker.close()


def _join(threads):
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


class _Held:
    """Jobs started on helper threads: the first holds the turn until
    ``release``, the rest are admitted and wait for the turn behind it."""

    def __init__(self, worker, n, *, run="submit"):
        self.release = threading.Event()
        self.inside = threading.Event()
        self.ran = []
        self.results = []
        self._run = getattr(worker, run)
        self.threads = [threading.Thread(target=self._job, args=(i,))
                        for i in range(n)]
        self.threads[0].start()
        assert self.inside.wait(timeout=5)
        for thread in self.threads[1:]:
            thread.start()
        await_until(lambda: worker.in_flight == n, 5.0)

    def _job(self, index):
        def body():
            if index == 0:
                self.inside.set()
                assert self.release.wait(timeout=5)
            self.ran.append(index)
            return index

        self.results.append(self._run("op", body))

    def finish(self):
        self.release.set()
        _join(self.threads)


def test_call_runs_on_the_calling_thread_and_returns(worker):
    w, recorder = worker
    assert w.call("op", lambda: recorder.work(21)) == 42
    assert recorder.threads == {threading.current_thread().name}
    assert w.stats.completed == {"op": 1}


def test_submit_returns_a_finished_future(worker):
    w, recorder = worker
    future = w.submit("op", lambda: recorder.work(4))
    assert future.done() and future.result(timeout=0) == 8

    def boom():
        raise RuntimeError("kaput")

    failed = w.submit("op", boom)  # the job's error is in the future ...
    assert failed.done()
    with pytest.raises(RuntimeError, match="kaput"):
        failed.result(timeout=0)
    assert w.stats.errors == {"op": 1}


def test_exceptions_propagate_to_the_caller(worker):
    w, _ = worker

    def boom():
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        w.call("op", boom)
    assert w.stats.errors == {"op": 1}


def test_full_queue_sheds_immediately(worker):
    """Four jobs in flight fill ``queue_depth=4``: the next submit is
    refused at once — the refusal raises, it is not put in a future."""
    w, _ = worker
    held = _Held(w, 4)
    try:
        with pytest.raises(ShardOverloadError) as excinfo:
            w.submit("op", lambda: None)
        assert excinfo.value.shard_id == 0
        assert excinfo.value.operation == "op"
        assert w.stats.shed == {"op": 1}
        assert held.ran == []  # nobody got past the job that holds the turn
    finally:
        held.finish()
    assert sorted(future.result(timeout=0) for future in held.results) == [
        0, 1, 2, 3]
    # The budget was given back: the next job goes straight through.
    assert w.call("op", lambda: "ok") == "ok"


def test_closed_worker_refuses_new_work(worker):
    w, _ = worker
    w.close()
    with pytest.raises(ServiceClosedError):
        w.submit("op", lambda: None)


def test_close_drains_pending_jobs():
    """``close`` refuses new work at once but waits for every job already
    admitted — the one holding the turn and the ones waiting for it."""
    worker = ShardWorker(1, None, queue_depth=8, seed=0)
    held = _Held(worker, 5)
    closer = threading.Thread(target=worker.close)
    closer.start()
    await_until(lambda: worker._closed, 5.0)
    with pytest.raises(ServiceClosedError):
        worker.submit("op", lambda: None)
    assert closer.is_alive()  # still waiting for the five in flight
    held.finish()
    _join([closer])
    assert sorted(held.ran) == [0, 1, 2, 3, 4]
    assert worker.in_flight == 0


def test_per_shard_rng_is_seed_derived():
    a = ShardWorker(0, None, queue_depth=1, seed=123)
    b = ShardWorker(0, None, queue_depth=1, seed=123)
    c = ShardWorker(0, None, queue_depth=1, seed=124)
    try:
        draws_a = [a.rng.random() for _ in range(5)]
        draws_b = [b.rng.random() for _ in range(5)]
        draws_c = [c.rng.random() for _ in range(5)]
        assert draws_a == draws_b
        assert draws_a != draws_c
    finally:
        a.close()
        b.close()
        c.close()


def test_execute_inline_runs_in_the_caller_thread(worker):
    w, recorder = worker
    assert w.execute_inline("search", lambda: recorder.work(5)) == 10
    assert recorder.threads == {threading.current_thread().name}
    assert w.stats.completed == {"search": 1}


def test_execute_inline_sheds_when_budget_exhausted(worker):
    """One reader is inside ``fn``; the other three are admitted and wait
    for the turn.  All ``queue_depth=4`` slots are out, so the fifth read
    sheds — admission comes before the turn."""
    w, _ = worker
    held = _Held(w, 4, run="execute_inline")
    try:
        with pytest.raises(ShardOverloadError):
            w.execute_inline("search", lambda: None)
        assert w.stats.shed == {"search": 1}
        assert held.ran == []
    finally:
        held.finish()
    assert len(held.ran) == 4
    # The budget was given back: the next inline read goes straight through.
    assert w.execute_inline("search", lambda: "ok") == "ok"


def test_execute_inline_propagates_errors(worker):
    w, _ = worker

    def boom():
        raise RuntimeError("inline kaput")

    with pytest.raises(RuntimeError, match="inline kaput"):
        w.execute_inline("search", boom)
    assert w.stats.errors == {"search": 1}
    assert w.execute_inline("search", lambda: 1) == 1  # budget given back


def test_execute_inline_refused_after_close(worker):
    w, _ = worker
    w.close()
    with pytest.raises(ServiceClosedError):
        w.execute_inline("search", lambda: None)


def test_rejects_zero_queue_depth():
    with pytest.raises(ValueError):
        ShardWorker(0, None, queue_depth=0)


def test_jobs_execute_in_submission_order():
    """Each caller's jobs run in the order it submitted them, whatever the
    other callers submit meanwhile."""
    worker = ShardWorker(2, None, queue_depth=16, seed=0)
    order = []
    start = threading.Barrier(3)

    def caller(name):
        start.wait(timeout=5)
        for value in range(50):
            worker.call("op", lambda v=value: order.append((name, v)))

    callers = [threading.Thread(target=caller, args=(name,))
               for name in "abc"]
    for thread in callers:
        thread.start()
    _join(callers)
    worker.close()
    for name in "abc":
        assert [v for who, v in order if who == name] == list(range(50))


def test_slow_job_does_not_lose_queued_work():
    """A long-running job must not drop work admitted behind it.

    Gated on events rather than ``time.sleep`` so the "slow" job is slow by
    construction — deterministic regardless of scheduler timing.
    """
    worker = ShardWorker(3, None, queue_depth=4, seed=0)
    started = threading.Event()
    release = threading.Event()
    results = {}

    def slow_job():
        started.set()
        assert release.wait(timeout=5)
        return "done"

    def run(name, fn):
        results[name] = worker.submit(name, fn)

    slow = threading.Thread(target=run, args=("slow", slow_job))
    slow.start()
    assert started.wait(timeout=5)  # the slow job holds the turn ...
    fast = threading.Thread(target=run, args=("fast", lambda: "fast"))
    fast.start()
    await_until(lambda: worker.in_flight == 2, 5.0)  # ... one waits behind
    release.set()
    _join([slow, fast])
    assert results["slow"].result(timeout=0) == "done"
    assert results["fast"].result(timeout=0) == "fast"
    worker.close()


def test_admission_count_survives_contention():
    """More callers than CPUs and than ``queue_depth``, with a short switch
    interval: every job is either completed or shed, the budget is never
    exceeded, and the count (and the depth gauge) returns to zero."""
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    worker = ShardWorker(4, None, queue_depth=3, metrics=metrics)
    n_threads, per_thread = 8, 200
    peak = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def caller(index):
        for _ in range(per_thread):
            run = worker.submit if index % 2 else worker.execute_inline
            try:
                run("op", lambda: peak.append(worker.in_flight))
            except ShardOverloadError:
                pass

    try:
        callers = [threading.Thread(target=caller, args=(i,))
                   for i in range(n_threads)]
        for thread in callers:
            thread.start()
        _join(callers)
    finally:
        sys.setswitchinterval(old_interval)
    stats = worker.stats_snapshot()
    done, shed = stats["completed"].get("op", 0), stats["shed"].get("op", 0)
    assert done + shed == n_threads * per_thread
    assert done == len(peak) and max(peak) <= 3
    assert worker.in_flight == 0
    assert metrics.get("xar_shard_queue_depth").labels(shard="4").value == 0
    worker.close()
