"""The traced pass: per-layer metrics from spans, plus the ladder.

End-to-end metrics are always taken with tracing off.  ``--trace 1`` runs
the workload's rounds twice, alternating untraced and traced rounds: the
untraced ones give the workload-scoped end-to-end metrics and the base for
``bench.trace_overhead_frac``; the traced ones give every layer metric
below.  Layer = module name in ``src/repro``.

How to read a layer metric: ``*.self_ms`` is a span's duration minus what
its child spans cover, median per call; ``*_per_search`` / ``*_per_create``
are totals divided by the number of enclosing ops; counts are taken at the
boundary where the work happens (``n`` of a span).  A metric a workload
never exercises reads 0 — which is itself the prediction for that workload
(no WAL on ``engine_*``, no RPC on ``thread_service``).
"""

from __future__ import annotations

import json
import socket
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import ladder, metrics, workloads
from .driver import SEARCH, RunLog
from .metrics import metric
from .runner import describe_phase, end_to_end
from .trace import Recorder, Span, adopt_orphans, self_times
from .workloads import Check, Phase

#: name -> (unit, better).  Everything ``--trace 1`` prints, in one place;
#: BENCHMARK.json's ``per_layer`` lists the same names.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # End-to-end metrics that some workloads do not define, or that do not
    # repeat within a contract bound on every workload (tracing off).
    "search_p99_ms": ("ms", "lower"),
    "book_p50_ms": ("ms", "lower"),
    "book_p95_ms": ("ms", "lower"),
    "create_p50_ms": ("ms", "lower"),
    "create_p95_ms": ("ms", "lower"),
    "track_p50_ms": ("ms", "lower"),
    "failed_frac": ("frac", "lower"),
    "recovery_s": ("s", "lower"),
    # core
    "core.search.self_ms": ("ms", "lower"),
    "core.search.calls": ("count", "lower"),
    "core.search.matches_per_call": ("count", "higher"),
    "core.search.empty_frac": ("frac", "lower"),
    "core.create.self_ms": ("ms", "lower"),
    "core.book.self_ms": ("ms", "lower"),
    "core.track.self_ms": ("ms", "lower"),
    "core.reachability.ms_per_create": ("ms", "lower"),
    # roadnet
    "roadnet.astar.ms_per_call": ("ms", "lower"),
    "roadnet.astar.calls_per_create": ("count", "lower"),
    "roadnet.dijkstra.ms_per_call": ("ms", "lower"),
    "roadnet.dijkstra.calls_per_book": ("count", "lower"),
    # index
    "index.flat.window_ms": ("ms", "lower"),
    "index.flat.candidates_per_search": ("count", "lower"),
    "index.matches_per_candidate": ("frac", "higher"),
    "index.flat.search_after_write_ratio": ("x", "lower"),
    "index.flat.write_ms": ("ms", "lower"),
    "index.cluster.write_ms": ("ms", "lower"),
    "index.rows_per_ride": ("count", "lower"),
    # durability
    "durability.wal.append_ms": ("ms", "lower"),
    "durability.wal.sync_ms": ("ms", "lower"),
    "durability.wal.syncs": ("count", "lower"),
    "durability.wal.bytes_per_mutation": ("B", "lower"),
    "durability.adapter.overhead_ms": ("ms", "lower"),
    "durability.checkpoint.write_ms": ("ms", "lower"),
    "durability.checkpoint.count": ("count", "lower"),
    "durability.checkpoint.bytes": ("B", "lower"),
    "durability.recovery.replay_ops_per_s": ("1/s", "higher"),
    "durability.recovery.checkpoint_load_ms": ("ms", "lower"),
    # service (thread router)
    "service.router.search_self_ms": ("ms", "lower"),
    "service.router.fanout_width": ("count", "lower"),
    "service.sharding.route_ms": ("ms", "lower"),
    "service.merge.ms_per_search": ("ms", "lower"),
    "service.shard.queue_wait_p50_ms": ("ms", "lower"),
    "service.shard.queue_wait_p99_ms": ("ms", "lower"),
    "service.shard.service_ms": ("ms", "lower"),
    "service.shard.shed": ("count", "lower"),
    "service.router.track_coalesced_frac": ("frac", "higher"),
    # service.proc
    "proc.rpc.roundtrip_ms.search": ("ms", "lower"),
    "proc.rpc.roundtrip_ms.book": ("ms", "lower"),
    "proc.rpc.roundtrip_ms.create": ("ms", "lower"),
    "proc.rpc.frame_encode_us": ("us", "lower"),
    "proc.rpc.frame_decode_us": ("us", "lower"),
    "proc.rpc.bytes_per_search_response": ("B", "lower"),
    "proc.router.self_ms": ("ms", "lower"),
    "proc.gateway.self_ms": ("ms", "lower"),
    "proc.client.self_ms": ("ms", "lower"),
    "proc.spawn_s": ("s", "lower"),
    # bench (validity guards)
    "bench.lag_p99_ms": ("ms", "lower"),
    "bench.slo_miss_frac": ("frac", "lower"),
    "bench.backlog_end_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("frac", "lower"),
    "bench.unattributed_frac": ("frac", "lower"),
    "bench.raw_over_best": ("x", "lower"),
    "bench.raw_search_p50_ms": ("ms", "lower"),
    "bench.raw_search_p99_ms": ("ms", "lower"),
    "bench.host_factor": ("x", "lower"),
    "bench.rounds": ("count", "higher"),
}
for _rung in ladder.RUNGS:
    for _op in ("search", "book", "create"):
        PER_LAYER[f"ladder.{_rung}.{_op}_p50_ms"] = ("ms", "lower")
    PER_LAYER[f"ladder.{_rung}.unattributed_frac"] = ("frac", "lower")


# ----------------------------------------------------------------------
# Span statistics
# ----------------------------------------------------------------------
class SpanStats:
    """Spans grouped by name with their self times."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = adopt_orphans(list(spans))
        self.self_s = self_times(self.spans)
        self.by_name: Dict[str, List[Span]] = {}
        self.children: Dict[int, List[Span]] = {}
        self.by_id: Dict[int, Span] = {span[0]: span for span in self.spans}
        for span in self.spans:
            if span[1]:
                self.children.setdefault(span[1], []).append(span)
            # Crash recovery replays creates and books through the engine;
            # those are recovery's cost, not the serving path's.
            if not self._replayed(span):
                self.by_name.setdefault(span[2], []).append(span)

    def _replayed(self, span: Span) -> bool:
        parent = span[1]
        while parent:
            ancestor = self.by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor[2] == "durability.recovery.replay":
                return True
            parent = ancestor[1]
        return False

    def named(self, *names: str) -> List[Span]:
        return [s for name in names for s in self.by_name.get(name, ())]

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def total_s(self, *names: str) -> float:
        return sum(s[4] - s[3] for s in self.named(*names))

    def median_ms(self, *names: str) -> float:
        spans = self.named(*names)
        if not spans:
            return 0.0
        return statistics.median(s[4] - s[3] for s in spans) * 1e3

    def median_self_ms(self, *names: str, include: Sequence[str] = ()) -> float:
        """Median per call of self time, plus the self time of direct
        children named in ``include`` (same layer, separate callable)."""
        spans = self.named(*names)
        if not spans:
            return 0.0
        values = []
        for span in spans:
            value = self.self_s[span[0]]
            for child in self.children.get(span[0], ()):
                if child[2] in include:
                    value += self.self_s[child[0]]
            values.append(value)
        return statistics.median(values) * 1e3


def layer_metrics(stats: SpanStats, host_factor: float = 1.0) -> Dict[str, Dict[str, Any]]:
    """Every span-derived layer metric (zeros where nothing ran).

    Times are medians or totals over *every* traced execution, divided by
    the run's host factor: unlike the end-to-end latencies they are not
    best-of-rounds, so they carry the host's short-term noise (as much as
    ``bench.raw_over_best`` says).  Compare them with each other and with
    ``bench.raw_search_p50_ms``."""
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, n: int) -> None:
        unit = PER_LAYER[name][0]
        if unit in ("ms", "us", "s"):
            value /= host_factor
        elif unit == "1/s":
            value *= host_factor
        out[name] = metric(value, unit, n)

    # ---- core --------------------------------------------------------
    searches = stats.named("core.search")
    n_search = len(searches)
    put("core.search.self_ms",
        stats.median_self_ms("core.search", include=("core.search.flat",)),
        n_search)
    put("core.search.calls", n_search, n_search)
    matches = sum(s[6] or 0 for s in searches)
    put("core.search.matches_per_call", matches / n_search if n_search else 0.0,
        n_search)
    put("core.search.empty_frac",
        sum(1 for s in searches if not s[6]) / n_search if n_search else 0.0,
        n_search)
    n_create, n_book = stats.count("core.create"), stats.count("core.book")
    n_track = stats.count("core.track")
    put("core.create.self_ms", stats.median_self_ms("core.create"), n_create)
    put("core.book.self_ms", stats.median_self_ms("core.book"), n_book)
    put("core.track.self_ms", stats.median_self_ms("core.track"), n_track)
    reach_in_create = [
        s for s in stats.named("core.reachability")
        if stats.by_id.get(s[1], (0, 0, ""))[2] == "core.create"
    ]
    put("core.reachability.ms_per_create",
        sum(s[4] - s[3] for s in reach_in_create) * 1e3 / n_create
        if n_create else 0.0, len(reach_in_create))

    # ---- roadnet -----------------------------------------------------
    n_astar, n_dijkstra = stats.count("roadnet.astar"), stats.count("roadnet.dijkstra")
    put("roadnet.astar.ms_per_call", stats.median_ms("roadnet.astar"), n_astar)
    put("roadnet.astar.calls_per_create",
        n_astar / n_create if n_create else 0.0, n_create)
    put("roadnet.dijkstra.ms_per_call", stats.median_ms("roadnet.dijkstra"),
        n_dijkstra)
    put("roadnet.dijkstra.calls_per_book",
        n_dijkstra / n_book if n_book else 0.0, n_book)

    # ---- index -------------------------------------------------------
    windows = stats.named("index.flat.window")
    candidates = sum(s[6] or 0 for s in windows)
    put("index.flat.window_ms",
        stats.total_s("index.flat.window") * 1e3 / n_search if n_search else 0.0,
        len(windows))
    put("index.flat.candidates_per_search",
        candidates / n_search if n_search else 0.0, n_search)
    put("index.matches_per_candidate",
        matches / candidates if candidates else 0.0, candidates)
    mutations = n_create + n_book + n_track
    put("index.flat.write_ms",
        stats.total_s("index.flat.write") * 1e3 / mutations if mutations else 0.0,
        stats.count("index.flat.write"))
    put("index.cluster.write_ms",
        stats.total_s("index.cluster.write") * 1e3 / mutations
        if mutations else 0.0, stats.count("index.cluster.write"))

    # ---- durability --------------------------------------------------
    n_append = stats.count("durability.wal.append")
    put("durability.wal.append_ms",
        stats.median_self_ms("durability.wal.append"), n_append)
    n_sync = stats.count("durability.wal.sync")
    put("durability.wal.sync_ms", stats.median_ms("durability.wal.sync"), n_sync)
    put("durability.wal.syncs", n_sync, n_sync)
    overheads = []
    for span in stats.named("durability.adapter.book"):
        inner = sum(c[4] - c[3] for c in stats.children.get(span[0], ())
                    if c[2] == "core.book")
        overheads.append((span[4] - span[3]) - inner)
    put("durability.adapter.overhead_ms",
        statistics.median(overheads) * 1e3 if overheads else 0.0,
        len(overheads))
    n_ckpt = stats.count("durability.checkpoint.write")
    put("durability.checkpoint.write_ms",
        stats.median_ms("durability.checkpoint.write"), n_ckpt)
    put("durability.checkpoint.count", n_ckpt, n_ckpt)
    n_replay = stats.count("durability.recovery.replay")
    replay_s = stats.total_s("durability.recovery.replay")
    put("durability.recovery.replay_ops_per_s",
        n_replay / replay_s if replay_s > 0 else 0.0, n_replay)
    loads = stats.named("durability.recovery.checkpoint_load")
    # read_checkpoint + restore_engine_state per recovered shard.
    put("durability.recovery.checkpoint_load_ms",
        sum(s[4] - s[3] for s in loads) * 1e3 / (len(loads) / 2)
        if loads else 0.0, len(loads) // 2)

    # ---- service -----------------------------------------------------
    n_router_search = stats.count("service.router.search", "proc.router.search")
    put("service.router.search_self_ms",
        stats.median_self_ms("service.router.search"),
        stats.count("service.router.search"))
    routes = [s for s in stats.named("service.sharding.route")
              if s[6] is not None]
    put("service.router.fanout_width",
        sum(s[6] for s in routes) / len(routes) if routes else 0.0, len(routes))
    put("service.sharding.route_ms", stats.median_ms("service.sharding.route"),
        stats.count("service.sharding.route"))
    put("service.merge.ms_per_search",
        stats.total_s("service.merge") * 1e3 / n_router_search
        if n_router_search else 0.0, stats.count("service.merge"))
    waits = [s[4] - s[3] for s in stats.named("service.shard.queue_wait")]
    put("service.shard.queue_wait_p50_ms",
        metrics.percentile_ms(waits, 50) if waits else 0.0, len(waits))
    put("service.shard.queue_wait_p99_ms",
        metrics.percentile_ms(waits, 99) if waits else 0.0, len(waits))
    put("service.shard.service_ms", stats.median_ms("service.shard.service"),
        stats.count("service.shard.service"))
    ticks = stats.named("service.router.track", "proc.router.track")
    put("service.router.track_coalesced_frac",
        sum(1 for s in ticks if not stats.children.get(s[0])) / len(ticks)
        if ticks else 0.0, len(ticks))

    # ---- service.proc ------------------------------------------------
    for op in ("search", "book", "create"):
        put(f"proc.rpc.roundtrip_ms.{op}", stats.median_ms(f"proc.rpc.{op}"),
            stats.count(f"proc.rpc.{op}"))
    put("proc.router.self_ms", stats.median_self_ms("proc.router.search"),
        stats.count("proc.router.search"))
    put("proc.client.self_ms", stats.median_self_ms("proc.client.search"),
        stats.count("proc.client.search"))
    # Gateway + HTTP: the time a search spent on the wire (send, wait for
    # the response, read it) minus the ProcRouter.search span that ran
    # inside the gateway meanwhile.
    gateway = []
    for span in stats.named("proc.client.search"):
        kids = stats.children.get(span[0], ())
        wire = sum(c[4] - c[3] for c in kids if c[2].startswith("http.wire."))
        routed = sum(c[4] - c[3] for c in kids if c[2] == "proc.router.search")
        if routed:
            gateway.append(wire - routed)
    put("proc.gateway.self_ms",
        statistics.median(gateway) * 1e3 if gateway else 0.0, len(gateway))

    # ---- bench -------------------------------------------------------
    requests = stats.named("request")
    request_s = sum(s[4] - s[3] for s in requests)
    put("bench.unattributed_frac",
        sum(stats.self_s[s[0]] for s in requests) / request_s
        if request_s > 0 else 0.0, len(requests))
    return out


# ----------------------------------------------------------------------
# RPC frame replay
# ----------------------------------------------------------------------
def frame_replay(samples: Sequence[Tuple[str, Any, Any]]) -> Dict[str, Dict[str, Any]]:
    """Replay captured shard RPCs through ``write_frame``/``read_frame``
    over a socketpair: what one hop's encode and decode cost, and how big a
    search response is on the wire.  The child's side of the hop is not
    visible from outside; this prices it."""
    from repro.service.proc.rpc import read_frame, write_frame

    frames: List[Tuple[str, Dict[str, Any]]] = []
    for index, (op, args, result) in enumerate(samples):
        frames.append((op + ":request", {"id": index, "op": op,
                                         "args": args or {},
                                         "deadline_ms": 5000.0}))
        frames.append((op + ":response", {"id": index, "ok": True,
                                          "result": result}))
    encode, decode, search_bytes = [], [], []
    if frames:
        left, right = socket.socketpair()
        try:
            left.settimeout(5.0)
            right.settimeout(5.0)
            for label, record in frames:
                started = time.perf_counter()
                write_frame(left, record)
                sent = time.perf_counter()
                echoed = read_frame(right)
                done = time.perf_counter()
                encode.append(sent - started)
                decode.append(done - sent)
                if label == "search:response":
                    search_bytes.append(
                        8 + len(json.dumps(echoed, separators=(",", ":"))))
        finally:
            left.close()
            right.close()
    return {
        "proc.rpc.frame_encode_us": metric(
            statistics.median(encode) * 1e6 if encode else 0.0, "us",
            len(encode)),
        "proc.rpc.frame_decode_us": metric(
            statistics.median(decode) * 1e6 if decode else 0.0, "us",
            len(decode)),
        "proc.rpc.bytes_per_search_response": metric(
            statistics.mean(search_bytes) if search_bytes else 0.0, "B",
            len(search_bytes)),
    }


# ----------------------------------------------------------------------
# The traced run of one workload
# ----------------------------------------------------------------------
def open_loop_guards(rounds: Sequence[RunLog]) -> Dict[str, Dict[str, Any]]:
    """Validity guards of the open-loop generator (zeros on closed loops)."""
    lags = [lag for log in rounds for lag in log.lags]
    requests = misses = 0
    for log in rounds:
        worst: Dict[int, float] = {}
        failed = set()
        for op in log.ops:
            if not op.ok:
                failed.add(op.position)
            elif op.kind == SEARCH:
                worst[op.position] = max(worst.get(op.position, 0.0),
                                         op.end - op.due)
        positions = set(worst) | failed
        requests += len(positions)
        misses += sum(
            1 for p in positions
            if p in failed or worst.get(p, 0.0) * 1e3 > workloads.SLO_SEARCH_MS)
    backlog = max((log.lags[-1] for log in rounds if log.lags), default=0.0)
    return {
        "bench.lag_p99_ms": metric(
            metrics.percentile_ms(lags, 99) if lags else 0.0, "ms", len(lags)),
        "bench.slo_miss_frac": metric(
            misses / requests if requests else 0.0, "frac", requests),
        "bench.backlog_end_s": metric(backlog, "s", len(rounds)),
    }


def trace_overhead(untraced: Sequence[RunLog], traced: Sequence[RunLog]) -> Dict[str, Any]:
    """Σ best-of-rounds latency with span wrappers ÷ without, − 1, over the
    ops both kinds of round ran."""
    base = metrics.best_of_rounds(untraced)
    with_spans = metrics.best_of_rounds(traced)
    common = base.keys() & with_spans.keys()
    base_s = sum(base[key][0] for key in common)
    traced_s = sum(with_spans[key][0] for key in common)
    return metric(traced_s / base_s - 1.0 if base_s > 0 else 0.0, "frac",
                  len(common))


def file_metrics(phase: Phase) -> Dict[str, Dict[str, Any]]:
    """WAL / checkpoint sizes the phase recorded from its durable stacks."""
    wal_bytes = phase.extra.get("wal_bytes", 0)
    appends = phase.extra.get("wal_appends", 0)
    ckpt = phase.extra.get("checkpoint_bytes", [])
    return {
        "durability.wal.bytes_per_mutation": metric(
            wal_bytes / appends if appends else 0.0, "B", appends),
        "durability.checkpoint.bytes": metric(
            statistics.mean(ckpt) if ckpt else 0.0, "B", len(ckpt)),
        "index.rows_per_ride": metric(
            phase.extra.get("rows_per_ride", 0.0), "count",
            int(phase.extra.get("rides", 0))),
        "service.shard.shed": metric(
            phase.extra.get("shed", 0), "count", len(phase.traced_rounds)),
        "proc.spawn_s": metric(
            statistics.median(phase.extra["spawn_s"])
            if phase.extra.get("spawn_s") else 0.0, "s",
            len(phase.extra.get("spawn_s", ()))),
    }


def run_traced(workload: str, data, seed: int, seconds: float, scale: float,
               result: Dict[str, Any],
               span_path: Optional[str] = None,
               with_ladder: bool = True) -> List[Check]:
    recorder = Recorder()
    phase = workloads.run_phase(workload, data, seed, seconds, recorder)
    stats = SpanStats(recorder.spans)
    out = end_to_end(workload, phase)
    # Layer metrics come from the traced rounds; the after-write ratio and
    # the raw-vs-best guard are per op and already in ``out``.
    out.update(layer_metrics(stats, out["bench.host_factor"]["value"]))
    out.update(frame_replay(recorder.rpc_samples))
    out.update(open_loop_guards(phase.traced_rounds))
    out.update(file_metrics(phase))
    out["bench.trace_overhead_frac"] = trace_overhead(
        phase.rounds, phase.traced_rounds)
    probe = phase.extra.get("after_write_probe")
    if probe is not None:
        out["index.flat.search_after_write_ratio"] = probe

    checks = list(phase.checks)
    if with_ladder:
        rungs = ladder.run(seed, scale)
        out.update(rungs.metrics)
        checks.extend(rungs.checks)
        result["ladder_digests"] = rungs.digests
    for name, (unit, _better) in PER_LAYER.items():
        out.setdefault(name, metric(0.0, unit, 0))

    if span_path is not None:
        recorder.write_jsonl(span_path)
    checks.append(well_formed(stats))
    result["metrics"] = out
    result["spans"] = len(recorder.spans)
    describe_phase(phase, result)
    return checks


def well_formed(stats: SpanStats) -> Check:
    """Parents exist, self times and durations are non-negative."""
    problems = 0
    for span in stats.spans:
        if span[4] < span[3]:
            problems += 1
        if span[1] and span[1] not in stats.by_id:
            problems += 1
        if stats.self_s[span[0]] < -1e-9:
            problems += 1
    return Check("spans_well_formed", problems == 0,
                 f"{len(stats.spans)} spans, {problems} problems")
