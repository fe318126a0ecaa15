"""Timing/quality metrics collected by the simulator.

All timings are wall-clock seconds from ``time.perf_counter``; helper
functions turn them into the percentile curves and CDFs the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """q-th percentile (0..100), linear interpolation; NaN when empty."""
    if not samples:
        return float("nan")
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"percentile q out of range: {q!r}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def cdf_points(samples: Sequence[float], n_points: int = 100) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting a CDF."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    step = max(1, n // n_points)
    for index in range(0, n, step):
        points.append((ordered[index], (index + 1) / n))
    points.append((ordered[-1], 1.0))
    return points


def fraction_below(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples <= threshold (NaN when empty)."""
    if not samples:
        return float("nan")
    return sum(1 for s in samples if s <= threshold) / len(samples)


@dataclass
class OperationTimings:
    """Per-operation wall-clock samples (seconds)."""

    search_s: List[float] = field(default_factory=list)
    create_s: List[float] = field(default_factory=list)
    book_s: List[float] = field(default_factory=list)

    def summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, samples in (
            ("search", self.search_s),
            ("create", self.create_s),
            ("book", self.book_s),
        ):
            if samples:
                out[name] = {
                    "count": float(len(samples)),
                    "mean_ms": 1000.0 * sum(samples) / len(samples),
                    "p50_ms": 1000.0 * percentile(samples, 50),
                    "p95_ms": 1000.0 * percentile(samples, 95),
                    "p99_ms": 1000.0 * percentile(samples, 99),
                    "max_ms": 1000.0 * max(samples),
                }
            else:
                out[name] = {"count": 0.0}
        return out


@dataclass
class SimulationReport:
    """Everything one simulation run produced."""

    engine_name: str
    n_requests: int
    n_matched: int
    n_booked: int
    n_created: int
    timings: OperationTimings
    #: Matches returned per search (the paper's multiple-options property).
    matches_per_search: List[int] = field(default_factory=list)
    #: |actual - estimated| booking detours, metres (XAR only; Fig. 3a).
    detour_approx_errors_m: List[float] = field(default_factory=list)
    #: Walking incurred by booked requesters, metres (XAR only).
    walk_distances_m: List[float] = field(default_factory=list)
    #: Rides withdrawn by the cancellation injector.
    n_cancelled: int = 0
    #: Bookings that failed mid-splice and were rolled back (transactional
    #: booking audit trail; XAR only).
    n_rollbacks: int = 0
    #: Injected faults per policy name (fault-injected runs only).
    fault_injections: Dict[str, int] = field(default_factory=dict)
    #: Operations the replay absorbed: ``search_failures`` (counted as
    #: misses) and ``create_failures`` (requests left unserved).
    resilience: Dict[str, float] = field(default_factory=dict)
    #: Invariant-audit counters: sweeps, violations_found, healed,
    #: post_run_violations.
    audit: Dict[str, int] = field(default_factory=dict)

    @property
    def match_rate(self) -> float:
        return self.n_matched / self.n_requests if self.n_requests else float("nan")

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"engine            : {self.engine_name}",
            f"requests          : {self.n_requests}",
            f"matched / booked  : {self.n_matched} / {self.n_booked}"
            f"  (match rate {100.0 * self.match_rate:.1f}%)",
            f"rides created     : {self.n_created}",
        ]
        for op, stats in self.timings.summary().items():
            if stats.get("count"):
                lines.append(
                    f"{op:<7} ms        : mean {stats['mean_ms']:.3f}"
                    f"  p95 {stats['p95_ms']:.3f}  max {stats['max_ms']:.3f}"
                    f"  (n={int(stats['count'])})"
                )
        if self.detour_approx_errors_m:
            errors = self.detour_approx_errors_m
            lines.append(
                f"detour approx err : mean {sum(errors)/len(errors):.0f} m"
                f"  p98 {percentile(errors, 98):.0f} m  max {max(errors):.0f} m"
            )
        if self.n_cancelled:
            lines.append(f"rides cancelled   : {self.n_cancelled}")
        if self.n_rollbacks:
            lines.append(f"booking rollbacks : {self.n_rollbacks}")
        if self.fault_injections:
            injected = ", ".join(
                f"{name}={count}" for name, count in sorted(self.fault_injections.items())
            )
            lines.append(f"faults injected   : {injected}")
        if self.resilience:
            lines.append(
                "failed ops        : "
                f"search {self.resilience.get('search_failures', 0)}, "
                f"create {self.resilience.get('create_failures', 0)}"
            )
        if self.audit:
            lines.append(
                "invariant audit   : "
                f"{self.audit.get('sweeps', 0)} sweeps, "
                f"{self.audit.get('violations_found', 0)} violations found, "
                f"{self.audit.get('healed', 0)} healed, "
                f"{self.audit.get('post_run_violations', 0)} post-run"
            )
        return "\n".join(lines)
