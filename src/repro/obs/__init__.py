"""First-class observability: metrics registry, tracing spans, exporters.

The serving stack (engine, shard workers, router, process supervisor,
gateway, load generator) reports into one :class:`MetricsRegistry`:

* **counters** — shed/error/partial-search/dropped-tick totals, atomic
  under a lock (replacing the racy ad-hoc ints the router used to keep);
* **gauges** — shard queue depth, shard-process state and heartbeat age;
* **histograms** — per-operation and per-*stage* durations (search:
  snap → cluster_lookup → candidate_scan → feasibility_filter →
  rank_merge; book: snapshot → splice → reindex; track: sweep), queue
  wait vs service time, search fan-out width.  Bucket bounds are fixed and
  deterministic, so snapshots are replay-stable.

:class:`Tracer` produces the per-stage spans (null-object pattern: tracing
a non-instrumented engine costs nothing); :func:`to_prometheus_text` and
:func:`to_json` export the registry; :func:`parse_prometheus_text` is the
strict mini-parser CI uses to assert the exposition is valid.  See
``docs/observability.md`` for the full metric catalogue.
"""

from .export import parse_prometheus_text, to_json, to_prometheus_text
from .registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    DETOUR_RATIO_BUCKETS,
    FANOUT_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    SWAP_GAIN_BUCKETS_M,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import NULL_SPAN, Span, Tracer, span_group

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DETOUR_RATIO_BUCKETS",
    "FANOUT_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "SWAP_GAIN_BUCKETS_M",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "span_group",
    "to_prometheus_text",
    "to_json",
    "parse_prometheus_text",
]
