"""Metric names, units, bounds, and how a run's op log becomes numbers.

Percentile rule: a timing is reported as its median and the highest
percentile that has at least ten samples beyond it at the pinned sizes —
p99 for searches, p95 for book/create, the median only for tracking ticks.
Every metric carries its sample count ``n``; :func:`tail_resolved` says
whether a particular run really had the ten samples.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from . import ROOT
from .driver import BOOK, CREATE, SEARCH, TRACK, RunLog

#: The 13 end-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "search_p50_ms": ("ms", "lower"),
    "search_p99_ms": ("ms", "lower"),
    "book_p50_ms": ("ms", "lower"),
    "book_p95_ms": ("ms", "lower"),
    "create_p50_ms": ("ms", "lower"),
    "create_p95_ms": ("ms", "lower"),
    "track_p50_ms": ("ms", "lower"),
    "failed_frac": ("frac", "lower"),
    "match_rate": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "recovery_s": ("s", "lower"),
}
#: Defined, and never zero, on every workload: the driver contract's
#: ``end_to_end`` set.  ``search_p99_ms`` is not in it — on ``http_open`` it
#: is the queueing tail of an open loop and moved by 20-100 % between
#: identical runs (see bench/baseline/NOISE.md).
UNIVERSAL = ("setup_s", "ops_per_s", "search_p50_ms", "match_rate",
             "peak_rss_mb")

#: Share of the base median by which a metric may get worse before
#: ``bench compare`` says ``worse``.  The single-client workloads repeat
#: within a few percent and keep the issue's bounds; the multi-client ones
#: are at the mercy of thread and process scheduling on a 2-vCPU box and get
#: the widest the contract allows.
_BOUND_ONE_CLIENT = {
    "setup_s": 0.25, "ops_per_s": 0.10, "search_p50_ms": 0.10,
    "search_p99_ms": 0.20, "book_p50_ms": 0.10, "book_p95_ms": 0.20,
    "create_p50_ms": 0.10, "create_p95_ms": 0.20, "track_p50_ms": 0.15,
    "match_rate": 0.02, "peak_rss_mb": 0.10, "recovery_s": 0.20,
}
_BOUND_MULTI_CLIENT = {
    "setup_s": 0.25, "ops_per_s": 0.25, "search_p50_ms": 0.25,
    "search_p99_ms": 0.25, "book_p50_ms": 0.25, "book_p95_ms": 0.25,
    "create_p50_ms": 0.25, "create_p95_ms": 0.25, "track_p50_ms": 0.25,
    "match_rate": 0.25, "peak_rss_mb": 0.10, "recovery_s": 0.25,
}
#: Metrics whose bound is an absolute difference, not a share of the base.
ABSOLUTE_BOUNDS = {"failed_frac": 0.001}
_MULTI_CLIENT = ("thread_service", "http_open")


def bound(workload: str, name: str) -> float:
    table = _BOUND_MULTI_CLIENT if workload in _MULTI_CLIENT else _BOUND_ONE_CLIENT
    return ABSOLUTE_BOUNDS.get(name, table.get(name, 0.25))


def contract_bound(name: str) -> float:
    """One bound per metric for BENCHMARK.json: the widest any workload needs."""
    return max(_BOUND_ONE_CLIENT[name], _BOUND_MULTI_CLIENT[name])


_EVERYWHERE = ("setup_s", "ops_per_s", "search_p50_ms", "search_p99_ms",
               "match_rate", "peak_rss_mb", "failed_frac")
#: Which of the 13 ``bench compare`` enforces on each workload.  On the two
#: service workloads more than 90 % of riders match, so ``create_*`` rests on
#: a handful of samples per round and ``book_p95_ms`` on the top few: they
#: are printed with their ``n`` but not enforced (bench/baseline/NOISE.md).
WORKLOAD_METRICS = {
    "engine_search": _EVERYWHERE,
    "engine_replay": _EVERYWHERE + (
        "book_p50_ms", "book_p95_ms", "create_p50_ms", "create_p95_ms",
        "track_p50_ms"),
    "thread_service": _EVERYWHERE + (
        "book_p50_ms", "track_p50_ms", "recovery_s"),
    "http_open": _EVERYWHERE + ("book_p50_ms",),
}

_TAIL = {SEARCH: 99.0, BOOK: 95.0, CREATE: 95.0}


def metric(value: float, unit: str, n: int) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit, "n": int(n)}


def tail_resolved(n: int, percentile: float) -> bool:
    """At least ten samples beyond the percentile."""
    return n * (100.0 - percentile) / 100.0 >= 10.0


def percentile_ms(samples_s: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_s, dtype=float), q)) * 1e3


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live children."""
    total_kb = 0
    for pid in ["self", *child_pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    if total_kb == 0:  # no /proc: fall back to this process's rusage
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def best_of_rounds(rounds: Sequence[RunLog]) -> Dict[tuple, tuple]:
    """(kind, position, ordinal) -> (fastest latency over the rounds that
    ran that op, after_write flag).

    Every round of a workload does the same work in the same order, so an
    op's fastest execution is the one the neighbours on the host disturbed
    least: interference only ever adds time.  On the 2-vCPU sandboxes this
    benchmark is sized for, the same search costs up to 1.5x more for
    seconds at a stretch, and medians over *all* executions move by 10-20 %
    between identical runs; medians over best-of-rounds move by 2-4 %.
    What it hides: stalls the program causes at random places (a GC pause)
    rather than at the same op every round — ``bench.raw_over_best`` keeps
    those visible.
    """
    best: Dict[tuple, tuple] = {}
    for log in rounds:
        for op in log.ops:
            if not op.ok:
                continue
            key = (op.kind, op.position, op.ordinal)
            latency = op.end - op.due
            held = best.get(key)
            if held is None or latency < held[0]:
                best[key] = (latency, op.after_write)
    return best


def _by_kind(latencies) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {SEARCH: [], BOOK: [], CREATE: [], TRACK: []}
    for kind, latency in latencies:
        out[kind].append(latency)
    return out


def _percentiles(by_kind: Dict[str, List[float]]) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for kind, tail in _TAIL.items():
        samples = by_kind[kind]
        if samples:
            out[f"{kind}_p50_ms"] = metric(percentile_ms(samples, 50), "ms",
                                           len(samples))
            name = f"{kind}_p{int(tail)}_ms"
            out[name] = metric(percentile_ms(samples, tail), "ms", len(samples))
            out[name]["resolved"] = tail_resolved(len(samples), tail)
    if by_kind[TRACK]:
        out["track_p50_ms"] = metric(percentile_ms(by_kind[TRACK], 50), "ms",
                                     len(by_kind[TRACK]))
    return out


def _median_round(values: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The round whose value is the median (the upper one of an even count)."""
    ordered = sorted(values, key=lambda value: value["value"])
    return ordered[len(ordered) // 2]


def _best_round(values: List[Dict[str, Any]]) -> Dict[str, Any]:
    return min(values, key=lambda value: value["value"])


def op_metrics(rounds: Sequence[RunLog], *, clients: int,
               open_loop: bool = False,
               host_factor: float = 1.0) -> Dict[str, Dict[str, Any]]:
    """Latency, throughput, failure and match metrics of a measured phase
    made of ``rounds`` of identical work.

    **One client**: the rounds are deterministic replicas, so every op keeps
    its fastest execution (:func:`best_of_rounds`), percentiles are taken
    over ops, and times are divided by ``host_factor`` (see ``hostspeed``).

    **Several clients**: thread and process scheduling make each round a
    different interleaving; an op's fastest execution is then mostly luck
    (best-of-rounds medians moved by 15 % between identical runs, round
    medians by 6-8 %).  Percentiles and throughput are taken per round and
    one round's value is reported, metric by metric: the *median round* on a
    closed loop, where now and then a whole round comes out twice as fast or
    three times as slow as its siblings; the *best round* on the open loop,
    where the schedule is fixed and a slower host can only add queueing
    (median-round search medians spread over 23 % across ten seeds,
    best-round ones over 16 %).  No host factor: a calibration kernel cannot
    run undisturbed next to the program's own threads.
    """
    ok_ops = sum(1 for log in rounds for op in log.ops if op.ok)
    wall = sum(log.duration for log in rounds)
    best = best_of_rounds(rounds)
    if clients == 1:
        out = _percentiles(_by_kind(
            (kind, latency / host_factor)
            for (kind, _p, _o), (latency, _aw) in best.items()))
        busy = sum(latency for latency, _aw in best.values()) / host_factor
        # Closed loop, one client: it always has one op in flight, so it
        # completes 1 / (mean op latency) ops per second.
        rate = len(best) / busy if busy > 0 else 0.0
    else:
        host_factor = 1.0
        per_round: Dict[str, List[Dict[str, Any]]] = {}
        for log in rounds:
            for name, value in _percentiles(_by_kind(
                    (op.kind, op.end - op.due)
                    for op in log.ops if op.ok)).items():
                per_round.setdefault(name, []).append(value)
        pick = _best_round if open_loop else _median_round
        out = {name: pick(values) for name, values in per_round.items()}
        if open_loop:
            # Offered load is fixed: completed ops per wall-second must
            # equal it; only a backlog or failures can pull it down.
            rate = ok_ops / wall if wall > 0 else 0.0
        else:
            rate = statistics.median(
                sum(1 for op in log.ops if op.ok) / log.duration
                for log in rounds if log.duration > 0)
    out["ops_per_s"] = metric(rate, "1/s", ok_ops)

    attempted = sum(log.attempted for log in rounds)
    failed = sum(log.failed for log in rounds)
    out["failed_frac"] = metric(failed / attempted if attempted else 0.0,
                                "frac", attempted)
    outcomes = rounds[-1].outcomes
    if outcomes:
        matched = sum(1 for o in outcomes if o.n_matches > 0)
        out["match_rate"] = metric(matched / len(outcomes), "frac",
                                   len(outcomes))

    # Guards: how much slower the average execution was than the best one
    # (host interference plus whatever the program does at random), the
    # unscaled pooled percentiles, and what was applied.
    pooled = [op.end - op.due for log in rounds for op in log.ops
              if op.ok and op.kind == SEARCH]
    best_search = [lat for (kind, _p, _o), (lat, _aw) in best.items()
                   if kind == SEARCH]
    if pooled:
        out["bench.raw_over_best"] = metric(
            float(np.median(pooled) / np.median(best_search)), "x", len(pooled))
        out["bench.raw_search_p50_ms"] = metric(
            percentile_ms(pooled, 50), "ms", len(pooled))
        out["bench.raw_search_p99_ms"] = metric(
            percentile_ms(pooled, 99), "ms", len(pooled))
    out["bench.rounds"] = metric(len(rounds), "count", len(rounds))
    out["bench.host_factor"] = metric(host_factor, "x", len(rounds))

    # Searches straight after a mutation vs after another search, over the
    # same executions the latencies above rest on.
    if clients == 1:
        flagged = [(lat, aw) for (kind, _p, _o), (lat, aw) in best.items()
                   if kind == SEARCH]
    else:
        flagged = [(op.end - op.due, op.after_write) for log in rounds
                   for op in log.ops if op.ok and op.kind == SEARCH]
    after = [lat for lat, aw in flagged if aw]
    steady = [lat for lat, aw in flagged if not aw]
    ratio = 1.0  # undefined (no search ever follows a write) reads as 1.0
    if len(after) >= 5 and len(steady) >= 5:
        ratio = float(np.median(after) / np.median(steady))
    out["index.flat.search_after_write_ratio"] = metric(
        ratio, "x", min(len(after), len(steady)))
    return out


def host_envelope() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
