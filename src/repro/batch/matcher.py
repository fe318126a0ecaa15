"""`BatchMatcher`: a windowed batch-assignment facade over any engine.

Implements the full :class:`~repro.sim.adapters.EngineAdapter` surface, so
anything that drives an engine (load generator, differential harness, CLI)
can swap it in.  ``search`` enqueues the request into the current window
and blocks until the window flushes; the flush searches every windowed
request against the inner engine, solves the request×ride assignment
(greedy seed + eject/2-swap improvement), and answers each caller with its
options re-ranked so the *batch-assigned* ride comes first.  ``book`` then
commits through the inner engine's transactional booking — a stale
assignment raises :class:`XARError` there, the caller falls through to the
next option, and the net effect is exactly the documented greedy fallback.

Accounting is explicit so "no request lost" is checkable: every submitted
request ends up in exactly one of ``assigned`` (solver placed it),
``fallback`` (solver passed, feasible options returned in greedy order),
``unmatched`` (no feasible ride), or ``failed`` (its search raised).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exceptions import XARError
from repro.obs import MetricsRegistry
from repro.obs.registry import QUEUE_DEPTH_BUCKETS, SWAP_GAIN_BUCKETS_M
from repro.sim.adapters import DelegatingAdapter

from .graph import build_candidate_graph
from .solver import solve_assignment
from .window import PendingRequest, WindowAccumulator

#: Every submitted request lands in exactly one of these ledger outcomes.
OUTCOMES = ("assigned", "fallback", "unmatched", "failed")


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs for windowing and the assignment solve."""

    #: Window length in seconds; 0 flushes every request on its own.
    window_s: float = 0.5
    #: Flush early once this many requests are queued.
    max_batch: int = 64
    #: Candidate edges fetched per request from the inner search.
    k_candidates: int = 8
    #: Detour metres are worth this many walk metres in the edge cost.
    detour_weight: float = 0.1
    #: Wall-clock cap on the improvement passes of one solve.
    solver_budget_s: float = 0.05
    #: Hard cap on improvement passes regardless of time left.
    max_passes: int = 8


class BatchMatcher(DelegatingAdapter):
    """Windowed batch assignment facade with swap improvement."""

    def __init__(
        self,
        inner: Any,
        config: Optional[BatchConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.inner = inner
        self.config = config or BatchConfig()
        if metrics is None:
            metrics = getattr(inner, "metrics", None)
        if metrics is None:
            metrics = getattr(getattr(inner, "engine", None), "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ledger_lock = threading.Lock()
        self._ledger: Dict[str, int] = {key: 0 for key in OUTCOMES}
        self._ledger.update(submitted=0, committed=0, conflicts=0)
        m = self.metrics
        self._h_window = m.histogram(
            "xar_batch_window_size",
            "Requests per flushed batch window",
            buckets=QUEUE_DEPTH_BUCKETS,
        )
        self._h_passes = m.histogram(
            "xar_batch_solver_passes",
            "Improvement passes run per window solve",
            buckets=QUEUE_DEPTH_BUCKETS,
        )
        self._h_gain = m.histogram(
            "xar_batch_swap_gain_m",
            "Cost metres recovered by swap passes per window",
            buckets=SWAP_GAIN_BUCKETS_M,
        )
        self._h_solve = m.histogram(
            "xar_batch_solve_seconds",
            "Wall time of one window solve (search + assignment)",
        )
        self._c_windows = m.counter(
            "xar_batch_windows_total",
            "Flushed windows by flush trigger",
            labels=("trigger",),
        )
        self._c_requests = m.counter(
            "xar_batch_requests_total",
            "Windowed requests by final window outcome",
            labels=("outcome",),
        )
        self._c_commits = m.counter(
            "xar_batch_commits_total",
            "Batch bookings by commit result",
            labels=("result",),
        )
        self._window = WindowAccumulator(
            self._flush_window,
            window_s=self.config.window_s,
            max_batch=self.config.max_batch,
        )

    @property
    def name(self) -> str:
        return f"Batch({self.inner.name})"

    # ------------------------------------------------------------------
    # EngineAdapter surface: search is windowed, book is accounted
    # ------------------------------------------------------------------
    def search(self, request, k: Optional[int] = None) -> List[Any]:
        """Window the request; block until its batch is solved.

        Returns at most ``max(k, k_candidates)`` options (``k_candidates``
        when ``k`` is None) with the batch-assigned ride first.
        """
        pending = PendingRequest(
            request=request, k=k, enqueued_at=time.monotonic()
        )
        self._bump("submitted")
        self._window.submit(pending)
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return list(pending.result or [])

    def book(self, request, match):
        try:
            record = self.inner.book(request, match)
        except XARError:
            self._bump("conflicts")
            self._c_commits.labels(result="conflict").inc()
            raise
        self._bump("committed")
        self._c_commits.labels(result="committed").inc()
        return record

    # ------------------------------------------------------------------
    # Extras used by loadgen / CLI when present on the inner target
    # ------------------------------------------------------------------
    def stats(self):
        stats = getattr(self.inner, "stats", None)
        out = dict(stats()) if callable(stats) else {}
        # The ledger rides along so JSON load reports carry the batch
        # accounting (CI asserts its balance without scraping stdout).
        out["batch_ledger"] = self.ledger()
        return out

    def audit(self, heal: bool = False):
        audit = getattr(self.inner, "audit", None)
        return audit(heal=heal) if callable(audit) else []

    def ledger(self) -> Dict[str, int]:
        """Copy of the request-accounting ledger (see module docstring)."""
        with self._ledger_lock:
            return dict(self._ledger)

    def close(self) -> None:
        """Stop the window thread; the inner engine stays usable."""
        self._window.close()

    def __enter__(self) -> "BatchMatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Window flush (runs on the accumulator thread)
    # ------------------------------------------------------------------
    def _flush_window(self, batch: List[PendingRequest], trigger: str) -> None:
        started = time.monotonic()
        cfg = self.config
        self._c_windows.labels(trigger=trigger).inc()
        self._h_window.observe(len(batch))
        graph = build_candidate_graph(
            self.inner, batch,
            k_candidates=cfg.k_candidates,
            detour_weight=cfg.detour_weight,
        )
        result = solve_assignment(
            graph.candidates, graph.budgets,
            max_passes=cfg.max_passes,
            time_budget_s=cfg.solver_budget_s,
        )
        self._h_passes.observe(result.passes)
        self._h_gain.observe(result.swap_gain)
        for index, pending in enumerate(batch):
            if pending.event.is_set():
                # Search raised; the graph builder already failed it.
                self._record_outcome("failed")
                continue
            options = graph.options.get(index, [])
            assigned = result.assignment.get(index)
            if assigned is not None:
                chosen = graph.option_by_ride[index][assigned.ride_id]
                ordered = [chosen]
                ordered.extend(o for o in options if o is not chosen)
                outcome = "assigned"
            elif options:
                ordered = list(options)
                outcome = "fallback"
            else:
                ordered = []
                outcome = "unmatched"
            self._record_outcome(outcome)
            if pending.k is not None:
                ordered = ordered[: pending.k]
            pending.resolve(ordered)
        self._h_solve.observe(time.monotonic() - started)

    def _record_outcome(self, outcome: str) -> None:
        self._bump(outcome)
        self._c_requests.labels(outcome=outcome).inc()

    def _bump(self, key: str) -> None:
        with self._ledger_lock:
            self._ledger[key] += 1
