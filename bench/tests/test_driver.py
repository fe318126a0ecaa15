"""The driver's timing rules, on stub targets."""

from __future__ import annotations

import time

from bench import metrics
from bench.driver import Op, RunLog, run_closed, run_open
from bench.inputs import build_world, make_stream


class SlowTarget:
    """Every search takes ``delay`` seconds and finds nothing."""

    def __init__(self, delay: float):
        self.delay = delay
        self.created = 0

    def search(self, request, k=None):
        time.sleep(self.delay)
        return []

    def create(self, source, destination, depart_s):
        self.created += 1

    def book(self, request, match):  # pragma: no cover - never matched
        raise AssertionError

    def track_all(self, now_s):
        return 0


def _requests(n):
    city, _region = build_world()
    return make_stream(city, 3, "demand", n, 0.5)


def test_open_loop_latency_is_measured_from_due_time():
    """A target slower than the arrival rate must show up as generator lag
    and as latency of the ops queued behind it — not be hidden by a sender
    that politely waits."""
    requests = _requests(12)
    arrivals = [0.005 * i for i in range(len(requests))]  # 200 req/s offered
    log = run_open(SlowTarget(0.02), requests, arrivals, senders=1, looks=0,
                   k=10)
    assert len(log.lags) == len(requests)
    # Serving takes 20 ms, arrivals are 5 ms apart: the last request starts
    # ~165 ms late.
    assert max(log.lags) > 0.1
    first_ops = {}
    for op in log.ops:
        first_ops.setdefault(op.position, op)
    last = first_ops[len(requests) - 1]
    assert last.end - last.due > 0.1, "lateness was not charged to the op"
    from bench.layers import open_loop_guards

    guards = open_loop_guards([log])
    assert guards["bench.lag_p99_ms"]["value"] > 100
    assert guards["bench.slo_miss_frac"]["value"] > 0.3
    assert guards["bench.backlog_end_s"]["value"] > 0.1


def test_open_loop_on_time_has_no_lag():
    requests = _requests(5)
    arrivals = [0.05 * i for i in range(len(requests))]
    log = run_open(SlowTarget(0.001), requests, arrivals, senders=2, looks=1,
                   k=10)
    assert max(log.lags) < 0.04
    served = [op for op in log.ops if op.kind != "track"]
    assert log.failed == 0 and len(served) == 5 * 3  # 2 searches + create


def test_closed_loop_serves_every_request_once():
    requests = _requests(9)
    target = SlowTarget(0.0)
    log = run_closed(target, requests, clients=2, looks=2, k=10, track=False)
    assert sorted(o.index for o in log.outcomes) == list(range(9))
    assert target.created == 9
    assert {(op.position, op.ordinal) for op in log.ops
            if op.kind != "track"} == {
        (p, o) for p in range(9) for o in range(4)}


def _log(latencies, kind="search"):
    log = RunLog()
    now = 100.0
    for position, latency in enumerate(latencies):
        log.ops.append(Op(kind, now, now + latency, True, position, 0))
    log.windows.append((now, now + sum(latencies)))
    return log


def test_best_of_rounds_takes_each_ops_fastest_execution():
    rounds = [_log([0.010, 0.002, 0.003]), _log([0.001, 0.020, 0.003])]
    best = metrics.best_of_rounds(rounds)
    assert [round(best[("search", p, 0)][0], 6) for p in range(3)] == [
        0.001, 0.002, 0.003]
    out = metrics.op_metrics(rounds, clients=1)
    assert abs(out["search_p50_ms"]["value"] - 2.0) < 1e-6
    assert abs(out["ops_per_s"]["value"] - 3 / 0.006) < 1e-6
    halved = metrics.op_metrics(rounds, clients=1, host_factor=2.0)
    assert abs(halved["search_p50_ms"]["value"] - 1.0) < 1e-6
    assert out["index.flat.search_after_write_ratio"]["value"] == 1.0


def test_failed_ops_count_and_never_feed_latency():
    log = _log([0.001, 0.001])
    log.ops.append(Op("search", 1.0, 9.0, False, 2, 0))
    out = metrics.op_metrics([log], clients=1)
    assert out["failed_frac"]["value"] == 1 / 3
    assert out["search_p50_ms"]["n"] == 2
