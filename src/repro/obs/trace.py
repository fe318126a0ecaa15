"""Lightweight tracing: per-operation spans with per-stage timing.

A :class:`Span` covers one engine operation (search, book, track, create)
and is cut into named *stages* with ``with span.stage("candidate_scan"):``.
Stage and whole-op durations land in two registry histograms —

* ``xar_op_duration_seconds{op=...}``
* ``xar_stage_duration_seconds{op=..., stage=...}``

— plus any extra labels the owning :class:`Tracer` carries (a sharded
deployment labels each engine's tracer with its shard id).  The tracer also
retains the last ``keep`` finished spans with their stage breakdowns, which
is what the JSON exporter dumps as a poor-man's trace view.

Instrumentation must cost nothing when disabled: ``Tracer(None)`` hands out
the module-level :data:`NULL_SPAN`, whose ``stage`` returns a shared no-op
context manager — no timestamps, no allocation, no locks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from .registry import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry

__all__ = ["NULL_SPAN", "Span", "Tracer", "span_group"]

#: Registry family names the tracer writes to.
OP_DURATION = "xar_op_duration_seconds"
STAGE_DURATION = "xar_stage_duration_seconds"


class _NullStage:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


class _NullSpan:
    """Span stand-in when no registry is attached: every call is a no-op."""

    __slots__ = ()
    _STAGE = _NullStage()

    def stage(self, name: str) -> _NullStage:
        return self._STAGE

    def finish(self) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Stage:
    __slots__ = ("_span", "_name", "_t0")

    def __init__(self, span: Any, name: str):
        self._span = span
        self._name = name

    def __enter__(self) -> "_Stage":
        self._t0 = self._span._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._span._record_stage(self._name, self._span._clock() - self._t0)
        return None


class Span:
    """One traced operation: stage timings + total duration."""

    __slots__ = ("op", "stages", "_tracer", "_clock", "_t0", "_finished",
                 "_duration")

    def __init__(self, op: str, tracer: "Tracer"):
        self.op = op
        #: ``(stage_name, seconds)`` in execution order; a stage entered
        #: twice contributes two entries.
        self.stages: List[Tuple[str, float]] = []
        self._tracer = tracer
        self._clock = tracer.clock
        self._t0 = self._clock()
        self._finished = False
        self._duration = 0.0

    def stage(self, name: str) -> _Stage:
        return _Stage(self, name)

    def _record_stage(self, name: str, seconds: float) -> None:
        self.stages.append((name, seconds))
        self._tracer._observe_stage(self.op, name, seconds)

    def finish(self) -> float:
        """Close the span, record the total duration, return it (seconds).

        Idempotent: a second ``finish`` (e.g. from an error path's
        ``finally``) is a no-op returning the recorded duration.
        """
        if self._finished:
            return self._duration
        self._finished = True
        self._duration = self._clock() - self._t0
        self._tracer._observe_op(self.op, self._duration, self)
        return self._duration


class _SpanGroup:
    """Spans of several tracers timed as one (see :func:`span_group`)."""

    __slots__ = ("_spans", "_clock")

    def __init__(self, spans: List[Span]):
        self._spans = spans
        self._clock = spans[0]._clock

    def stage(self, name: str) -> _Stage:
        return _Stage(self, name)

    def _record_stage(self, name: str, seconds: float) -> None:
        for span in self._spans:  # Span._record_stage, inlined
            span.stages.append((name, seconds))
            span._tracer._observe_stage(span.op, name, seconds)

    def finish(self) -> None:
        for span in self._spans:
            span.finish()


def span_group(spans: List[Any]) -> Any:
    """One span over an operation run once for several tracers (a search
    pass over several shards' engines): each stage is timed once and
    recorded in every span, and ``finish`` closes them all.  Null spans are
    left out; with none left it is the null span."""
    live = [span for span in spans if span is not NULL_SPAN]
    return _SpanGroup(live) if live else NULL_SPAN


class Tracer:
    """Span factory bound to a registry (or to nothing: null tracing)."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry],
        labels: Optional[Dict[str, str]] = None,
        keep: int = 64,
        clock=time.perf_counter,
    ):
        self.registry = registry
        self.labels = dict(labels or {})
        self.clock = clock
        #: ``(op, seconds, stages)`` of the last ``keep`` finished spans.
        self._recent: "deque[Tuple[str, float, Tuple]]" = deque(maxlen=keep)
        self._recent_lock = threading.Lock()
        #: Histogram children, resolved once per ``op`` / ``(op, stage)``.
        self._children: Dict[Any, Any] = {}
        if registry is not None:
            extra = tuple(sorted(self.labels))
            self._h_op = registry.histogram(
                OP_DURATION,
                "Engine operation duration by operation",
                labels=("op",) + extra,
                buckets=DEFAULT_LATENCY_BUCKETS_S,
            )
            self._h_stage = registry.histogram(
                STAGE_DURATION,
                "Engine per-stage duration by operation and stage",
                labels=("op", "stage") + extra,
                buckets=DEFAULT_LATENCY_BUCKETS_S,
            )

    @property
    def enabled(self) -> bool:
        return self.registry is not None

    def span(self, op: str):
        """A live span when enabled, the shared null span otherwise."""
        if self.registry is None:
            return NULL_SPAN
        return Span(op, self)

    # -- sink ----------------------------------------------------------
    def _observe_stage(self, op: str, stage: str, seconds: float) -> None:
        child = self._children.get((op, stage)) or self._bind(
            (op, stage), self._h_stage, op=op, stage=stage
        )
        child.observe(seconds)

    def _observe_op(self, op: str, seconds: float, span: Span) -> None:
        (self._children.get(op) or self._bind(op, self._h_op, op=op)).observe(seconds)
        with self._recent_lock:
            self._recent.append((op, seconds, tuple(span.stages)))

    def _bind(self, key: Any, family: Any, **labels: str) -> Any:
        child = self._children[key] = family.labels(**labels, **self.labels)
        return child

    def recent_spans(self) -> List[Dict[str, Any]]:
        """The last ``keep`` finished spans, oldest first."""
        with self._recent_lock:
            recent = list(self._recent)
        return [
            {
                "op": op,
                "duration_s": seconds,
                "stages": [{"stage": name, "duration_s": d} for name, d in stages],
                **({"labels": dict(self.labels)} if self.labels else {}),
            }
            for op, seconds, stages in recent
        ]
