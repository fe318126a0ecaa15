"""Tracer/Span semantics: stage timing, labels, idempotent finish."""

from __future__ import annotations

from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import OP_DURATION, STAGE_DURATION


def _fake_clock(ticks):
    """A clock returning successive values from ``ticks``."""
    it = iter(ticks)
    return lambda: next(it)


def test_span_records_op_and_stage_durations():
    registry = MetricsRegistry()
    # t0=0 (span), stage enter 1 / exit 3 (2 s), finish at 10 (10 s total).
    tracer = Tracer(registry, clock=_fake_clock([0.0, 1.0, 3.0, 10.0]))
    span = tracer.span("search")
    with span.stage("snap"):
        pass
    assert span.finish() == 10.0
    op = registry.get(OP_DURATION).labels(op="search")
    stage = registry.get(STAGE_DURATION).labels(op="search", stage="snap")
    assert op.count == 1 and op.sum == 10.0
    assert stage.count == 1 and stage.sum == 2.0


def test_finish_is_idempotent():
    registry = MetricsRegistry()
    tracer = Tracer(registry, clock=_fake_clock([0.0, 5.0, 99.0]))
    span = tracer.span("book")
    assert span.finish() == 5.0
    assert span.finish() == 5.0  # error-path finally double-finish
    assert registry.get(OP_DURATION).labels(op="book").count == 1


def test_extra_labels_ride_along_on_every_series():
    registry = MetricsRegistry()
    tracer = Tracer(registry, labels={"shard": "3"})
    span = tracer.span("track")
    with span.stage("sweep"):
        pass
    span.finish()
    assert registry.get(OP_DURATION).labels(op="track", shard="3").count == 1
    assert (
        registry.get(STAGE_DURATION)
        .labels(op="track", stage="sweep", shard="3")
        .count
        == 1
    )


def test_recent_spans_bounded_by_keep():
    registry = MetricsRegistry()
    tracer = Tracer(registry, keep=2)
    for i in range(5):
        tracer.span(f"op{i}").finish()
    recent = tracer.recent_spans()
    assert [s["op"] for s in recent] == ["op3", "op4"]


def test_repeated_stage_contributes_multiple_entries():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    span = tracer.span("search")
    with span.stage("cluster_lookup"):
        pass
    # A tracer-level property: re-entering a stage appends another histogram
    # entry.  (The search path itself enters each stage exactly once per
    # search — pinned by tests/core/test_search_stages.py.)
    with span.stage("cluster_lookup"):
        pass
    span.finish()
    family = registry.get(STAGE_DURATION)
    assert family.labels(op="search", stage="cluster_lookup").count == 2


def test_recent_spans_carry_stages_and_labels():
    tracer = Tracer(
        MetricsRegistry(),
        labels={"shard": "1"},
        clock=_fake_clock([0.0, 1.0, 3.0, 10.0]),
    )
    span = tracer.span("search")
    with span.stage("snap"):
        pass
    span.finish()
    expected = {
        "op": "search",
        "duration_s": 10.0,
        "stages": [{"stage": "snap", "duration_s": 2.0}],
        "labels": {"shard": "1"},
    }
    assert tracer.recent_spans() == [expected]
    # Each read hands out fresh dicts: mutating one leaves the record intact.
    tracer.recent_spans()[0]["labels"]["shard"] = "9"
    assert tracer.recent_spans() == [expected]
