"""ShardWorker: single-threaded execution, bounded queue, explicit shed."""

from __future__ import annotations

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


def test_call_runs_on_the_shard_thread_and_returns(worker):
    w, recorder = worker
    assert w.call("op", lambda: recorder.work(21)) == 42
    assert recorder.threads == {"xar-shard-0"}
    assert w.stats.completed == {"op": 1}


def test_exceptions_propagate_to_the_caller(worker):
    w, _ = worker

    def boom():
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        w.call("op", boom)
    assert w.stats.errors == {"op": 1}


def test_full_queue_sheds_immediately(worker):
    w, _ = worker
    release = threading.Event()
    started = threading.Event()

    def block():
        started.set()
        release.wait()

    w.submit("block", block)
    started.wait(timeout=5)  # the worker thread is now busy, queue empty
    futures = []
    with pytest.raises(ShardOverloadError) as excinfo:
        for _ in range(10):  # queue_depth=4: the 5th queued job must shed
            futures.append(w.submit("op", lambda: None))
    assert excinfo.value.shard_id == 0
    assert excinfo.value.operation == "op"
    assert w.stats.shed["op"] >= 1
    assert len(futures) == 4
    release.set()
    for future in futures:
        future.result(timeout=5)


def test_queue_peak_is_tracked(worker):
    w, _ = worker
    release = threading.Event()
    w.submit("block", release.wait)
    for _ in range(3):
        w.submit("op", lambda: None)
    release.set()
    assert w.stats.queue_peak >= 2


def test_closed_worker_refuses_new_work(worker):
    w, _ = worker
    w.close()
    with pytest.raises(ServiceClosedError):
        w.submit("op", lambda: None)


def test_close_drains_pending_jobs():
    results = []
    worker = ShardWorker(1, None, queue_depth=8, seed=0)
    for value in range(5):
        worker.submit("op", lambda v=value: results.append(v))
    worker.close()
    assert results == [0, 1, 2, 3, 4]


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
    """One reader is inside ``fn``; the other three hold their permits
    while they wait for the turn.  All ``queue_depth=4`` permits are out, so
    the fifth read sheds — admission comes before the turn."""
    w, _ = worker
    release = threading.Event()
    inside = threading.Event()
    ran = []

    def hold():
        def block():
            inside.set()
            assert release.wait(timeout=5)
            ran.append(1)

        w.execute_inline("search", block)

    first = threading.Thread(target=hold)
    first.start()
    assert inside.wait(timeout=5)
    waiters = [threading.Thread(target=hold) for _ in range(3)]
    for thread in waiters:
        thread.start()
    await_until(lambda: w._read_gate._value == 0, 5.0)
    with pytest.raises(ShardOverloadError):
        w.execute_inline("search", lambda: None)
    assert w.stats.shed == {"search": 1}
    assert ran == []  # nobody got past the reader that holds the turn
    release.set()
    for thread in [first, *waiters]:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert len(ran) == 4
    # Permits were released: the next inline read goes straight through.
    assert w.execute_inline("search", lambda: "ok") == "ok"


def test_execute_inline_propagates_errors(worker):
    w, _ = worker

    def boom():
        raise RuntimeError("inline kaput")

    with pytest.raises(RuntimeError, match="inline kaput"):
        w.execute_inline("search", boom)
    assert w.stats.errors == {"search": 1}
    assert w.execute_inline("search", lambda: 1) == 1  # permit released


def test_execute_inline_refused_after_close(worker):
    w, _ = worker
    w.close()
    with pytest.raises(ServiceClosedError):
        w.execute_inline("search", lambda: None)


def test_rejects_zero_queue_depth():
    with pytest.raises(ValueError):
        ShardWorker(0, None, queue_depth=0)


def test_jobs_execute_in_submission_order():
    order = []
    worker = ShardWorker(2, None, queue_depth=16, seed=0)
    gate = threading.Event()
    worker.submit("block", gate.wait)
    for value in range(6):
        worker.submit("op", lambda v=value: order.append(v))
    gate.set()
    worker.close()
    assert order == sorted(order)


def test_slow_job_does_not_lose_queued_work():
    """A long-running job must not drop work queued behind it.

    Gated on events rather than ``time.sleep`` so the "slow" job is slow by
    construction — deterministic regardless of scheduler timing.
    """
    worker = ShardWorker(3, None, queue_depth=4, seed=0)
    started = threading.Event()
    release = threading.Event()

    def slow_job():
        started.set()
        assert release.wait(timeout=5)
        return "done"

    slow = worker.submit("slow", slow_job)
    assert started.wait(timeout=5)  # the worker is mid-job ...
    fast = worker.submit("fast", lambda: "fast")  # ... with work queued behind
    release.set()
    assert slow.result(timeout=5) == "done"
    assert fast.result(timeout=5) == "fast"
    worker.close()
