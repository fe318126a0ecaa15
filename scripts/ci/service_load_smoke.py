"""Sharded service load smoke.

Usage, from any directory, after the fault-injected smoke run has built
``WORKDIR/region``::

    python scripts/ci/service_load_smoke.py WORKDIR

About 300 requests (seed 13) go through the 2-shard concurrent service with
a prepopulated ride supply.  The SLO flags turn the run into an assertion:
admission control must shed under 20% of requests and matching must
actually happen; the post-run invariant audit (always enforced) must come
back clean.  The metrics dump must pass the strict exposition parser and
carry the core per-stage and per-shard series.

Writes ``WORKDIR/load_smoke.json`` and ``WORKDIR/load_smoke_metrics.prom``;
exits non-zero on any failed check, a failing command included.
"""

from __future__ import annotations

import json

from _ci import workdir, xar

CORE_SERIES = (
    "xar_op_duration_seconds_bucket",
    "xar_stage_duration_seconds_bucket",
    "xar_shard_ops_total",
    "xar_shard_queue_depth",
    "xar_shard_queue_wait_seconds_count",
    "xar_shard_service_seconds_count",
    "xar_router_track_ticks_total",
    "xar_router_fanout_width_count",
    "xar_loadgen_op_seconds_count",
    "xar_loadgen_requests_total",
)
SEARCH_STAGES = {
    "snap", "cluster_lookup", "candidate_scan", "feasibility_filter",
    "rank_merge",
}


def main() -> None:
    work = workdir()
    report_path = work / "load_smoke.json"
    metrics_path = work / "load_smoke_metrics.prom"
    xar("loadtest", work / "region",
        "--shards", "2", "--workers", "4", "--requests", "300",
        "--prepopulate", "80", "--looks", "1", "--seed", "13",
        "--json", report_path, "--metrics-out", metrics_path,
        "--max-shed-rate", "0.20", "--min-match-rate", "0.01")

    report = json.loads(report_path.read_text())
    assert report["audit"]["violations"] == 0, report["audit"]
    assert report["matched"] > 0, "load smoke matched nothing"
    print(f"load smoke: {report['qps']:.0f} req/s, "
          f"match rate {report['match_rate']:.2%}, "
          f"shed rate {report['shed_rate']:.2%}")

    from repro.obs import parse_prometheus_text
    # Strict: raises on any malformed line.
    samples = parse_prometheus_text(metrics_path.read_text())
    missing = [name for name in CORE_SERIES if name not in samples]
    assert not missing, f"exposition missing core series: {missing}"
    stages = {labels["stage"] for labels, _v in
              samples["xar_stage_duration_seconds_bucket"]
              if labels["op"] == "search"}
    assert SEARCH_STAGES <= stages, stages
    shards = {labels["shard"] for labels, _v in samples["xar_shard_ops_total"]}
    assert shards == {"0", "1"}, shards
    print(f"metrics smoke: {len(samples)} sample families, "
          f"{sum(len(v) for v in samples.values())} series OK")


if __name__ == "__main__":
    main()
