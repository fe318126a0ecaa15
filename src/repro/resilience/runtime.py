"""Fault-tolerant runtime: deadlines, retries, circuit breaking, degradation.

:class:`ResilientEngine` wraps any simulator-facing engine adapter (usually
:class:`~repro.sim.adapters.XARAdapter`, possibly already wrapped by the
fault injector) and implements the same ``EngineAdapter`` protocol, adding
the production behaviours the paper's clean replay never needed:

* **per-operation deadlines** — each call is timed; read-path operations
  (search, track) that blow their deadline raise
  :class:`~repro.exceptions.DeadlineExceededError` and count as failures,
  while mutation operations (create, book) log the violation but keep their
  result, because a splice that already happened cannot be un-happened by a
  timer;
* **bounded retry** — transient faults (``NoPathError``,
  ``TransientFaultError``, deadline blows) are retried up to
  ``RetryPolicy.max_attempts`` with exponential backoff plus seeded jitter;
  permanent faults (``BookingError`` etc.) propagate immediately;
* **circuit breaking** — repeated search/route failures open a breaker;
  while open, the expensive primary path is skipped entirely and probes are
  let through after ``recovery_s`` (half-open) to detect recovery;
* **graceful degradation** — when the optimized cluster-index search is
  unavailable (breaker open or still failing after retries), search falls
  back to the T-Share-style direct grid scan
  (:func:`~repro.resilience.fallback.grid_scan_search`), and finally to
  returning no matches, which lets the simulator's create-on-miss policy
  serve the request with a fresh ride.  Every request's serving tier is
  counted (``optimized`` / ``grid_fallback`` / ``create_on_miss``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.request import RideRequest
from ..exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    NoPathError,
    TransientFaultError,
    XARError,
)
from ..geo import GeoPoint
from ..obs import MetricsRegistry
from ..sim.adapters import DelegatingAdapter, raw_engine
from .fallback import grid_scan_search

#: Numeric encoding of breaker states for the ``xar_breaker_state`` gauge.
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

#: Exception types safe to retry: the fault is in the infrastructure, not
#: the request.
TRANSIENT_ERRORS = (NoPathError, TransientFaultError, DeadlineExceededError)


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter."""

    max_attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5
    #: Fraction of the backoff randomized (0 = deterministic backoff).
    jitter: float = 0.5

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        delay = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


class CircuitBreaker:
    """Classic three-state breaker (closed → open → half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._clock = clock
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.recovery_s
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the protected operation run now?"""
        return self.state != self.OPEN

    def record_success(self) -> None:
        self._failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == self.HALF_OPEN or self._failures >= self.failure_threshold:
            if self._state != self.OPEN:
                self.trips += 1
            self._state = self.OPEN
            self._opened_at = self._clock()
            self._failures = 0


@dataclass
class ResilienceConfig:
    """Knobs of the fault-tolerant runtime."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-operation deadlines, seconds (None disables the check).
    search_deadline_s: Optional[float] = 1.0
    create_deadline_s: Optional[float] = 5.0
    book_deadline_s: Optional[float] = 5.0
    track_deadline_s: Optional[float] = 10.0
    #: Breaker: consecutive failures before opening, and cool-down.
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 30.0
    #: Seed for the retry jitter.
    seed: int = 0
    #: Injectable sleep/clock (tests pass no-op sleep and fake clocks).
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic


@dataclass
class ResilienceStats:
    """Counters the report surfaces after a run."""

    retries: int = 0
    deadline_violations: int = 0
    breaker_trips: int = 0
    short_circuits: int = 0
    fallback_searches: int = 0
    failed_operations: int = 0
    #: Requests served per degradation tier.
    tiers: Dict[str, int] = field(
        default_factory=lambda: {
            "optimized": 0,
            "grid_fallback": 0,
            "create_on_miss": 0,
        }
    )

    def as_dict(self) -> Dict[str, int]:
        out = {
            "retries": self.retries,
            "deadline_violations": self.deadline_violations,
            "breaker_trips": self.breaker_trips,
            "short_circuits": self.short_circuits,
            "fallback_searches": self.fallback_searches,
            "failed_operations": self.failed_operations,
        }
        return out


class ResilientEngine(DelegatingAdapter):
    """Fault-tolerant façade over an engine adapter (EngineAdapter-shaped)."""

    def __init__(
        self,
        inner: Any,
        config: Optional[ResilienceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[Dict[str, str]] = None,
    ):
        self.inner = inner
        self.config = config or ResilienceConfig()
        self.name = f"Resilient({getattr(inner, 'name', 'engine')})"
        self._rng = random.Random(self.config.seed)
        self.stats = ResilienceStats()
        make = lambda: CircuitBreaker(  # noqa: E731 - tiny local factory
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_s=self.config.breaker_recovery_s,
            clock=self.config.clock,
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            "search": make(),
            "route": make(),  # shared by create + book (the SP-bound ops)
        }
        #: request id -> tier of the search that produced its matches.
        self._search_tier: Dict[int, str] = {}
        #: Registry instruments (None when uninstrumented).  Label children
        #: carry the extra labels (e.g. ``shard``) so N resilient wrappers
        #: can share one registry without series collisions.
        self._extra = dict(metrics_labels or {})
        extra_keys = tuple(sorted(self._extra))
        self._m_retries = self._m_deadline = self._m_short = None
        self._m_fallback = self._m_failed = self._m_tiers = None
        self._m_trips = self._m_state = None
        if metrics is not None:
            self._m_retries = metrics.counter(
                "xar_resilience_retries_total",
                "Retries of transient faults / deadline blows",
                labels=("op",) + extra_keys,
            )
            self._m_deadline = metrics.counter(
                "xar_resilience_deadline_violations_total",
                "Operations that exceeded their per-op deadline",
                labels=("op",) + extra_keys,
            )
            self._m_short = metrics.counter(
                "xar_resilience_short_circuits_total",
                "Calls refused up front because a breaker was open",
                labels=("op",) + extra_keys,
            )
            self._m_fallback = metrics.counter(
                "xar_resilience_fallback_searches_total",
                "Searches served by the T-Share-style grid scan",
                labels=extra_keys,
            )
            self._m_failed = metrics.counter(
                "xar_resilience_failed_operations_total",
                "Operations that exhausted their retry budget",
                labels=("op",) + extra_keys,
            )
            self._m_tiers = metrics.counter(
                "xar_resilience_tier_total",
                "Requests served per degradation tier",
                labels=("tier",) + extra_keys,
            )
            self._m_trips = metrics.counter(
                "xar_breaker_trips_total",
                "Circuit-breaker trips (closed/half-open -> open)",
                labels=("breaker",) + extra_keys,
            )
            self._m_state = metrics.gauge(
                "xar_breaker_state",
                "Breaker state: 0=closed, 1=half_open, 2=open "
                "(synced on every accounted call)",
                labels=("breaker",) + extra_keys,
            )
        #: Last trips total exported per breaker (the registry counter gets
        #: the delta, keeping it monotone while the breaker owns the count).
        self._exported_trips: Dict[str, int] = {name: 0 for name in self.breakers}
        self._sync_breaker_metrics()

    def _inc(self, family, **labels) -> None:
        if family is not None:
            family.labels(**self._extra, **labels).inc()

    def _sync_breaker_metrics(self) -> None:
        """Mirror breaker trips/states onto the registry (no-op when bare)."""
        if self._m_state is None:
            return
        for name, breaker in self.breakers.items():
            self._m_state.labels(breaker=name, **self._extra).set(
                BREAKER_STATE_CODES[breaker.state]
            )
            delta = breaker.trips - self._exported_trips[name]
            if delta > 0:
                self._m_trips.labels(breaker=name, **self._extra).inc(delta)
                self._exported_trips[name] = breaker.trips

    # ------------------------------------------------------------------
    # Core retry/deadline machinery
    # ------------------------------------------------------------------
    def _call(
        self,
        operation: str,
        fn: Callable[[], Any],
        deadline_s: Optional[float],
        breaker: Optional[CircuitBreaker],
        enforce_deadline: bool,
    ) -> Any:
        """Run ``fn`` under retry + deadline + breaker accounting."""
        retry = self.config.retry
        clock = self.config.clock
        last_error: Optional[Exception] = None
        for attempt in range(1, retry.max_attempts + 1):
            started = clock()
            try:
                result = fn()
            except TRANSIENT_ERRORS as exc:
                last_error = exc
                if breaker is not None:
                    breaker.record_failure()
                    self._sync_breaker_metrics()
                if attempt < retry.max_attempts:
                    self.stats.retries += 1
                    self._inc(self._m_retries, op=operation)
                    self.config.sleep(retry.delay_s(attempt, self._rng))
                    continue
                self.stats.failed_operations += 1
                self._inc(self._m_failed, op=operation)
                raise
            elapsed = clock() - started
            if deadline_s is not None and elapsed > deadline_s:
                self.stats.deadline_violations += 1
                self._inc(self._m_deadline, op=operation)
                if breaker is not None:
                    breaker.record_failure()
                    self.stats.breaker_trips = sum(
                        b.trips for b in self.breakers.values()
                    )
                    self._sync_breaker_metrics()
                if enforce_deadline:
                    last_error = DeadlineExceededError(operation, elapsed, deadline_s)
                    if attempt < retry.max_attempts:
                        self.stats.retries += 1
                        self._inc(self._m_retries, op=operation)
                        self.config.sleep(retry.delay_s(attempt, self._rng))
                        continue
                    self.stats.failed_operations += 1
                    self._inc(self._m_failed, op=operation)
                    raise last_error
                # Mutation already applied: keep the result, log the blow.
                return result
            if breaker is not None:
                breaker.record_success()
                self._sync_breaker_metrics()
            return result
        raise last_error  # pragma: no cover - loop always returns or raises

    # ------------------------------------------------------------------
    # EngineAdapter protocol: the ops run under retry / deadline / breaker
    # ------------------------------------------------------------------
    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ) -> Any:
        result = self._call(
            "create",
            lambda: self.inner.create(
                source, destination, depart_s,
                seats=seats, detour_limit_m=detour_limit_m,
                shift_end_s=shift_end_s,
            ),
            self.config.create_deadline_s,
            self.breakers["route"],
            enforce_deadline=False,
        )
        self.stats.tiers["create_on_miss"] += 1
        self._inc(self._m_tiers, tier="create_on_miss")
        self.stats.breaker_trips = sum(b.trips for b in self.breakers.values())
        return result

    def search(self, request: RideRequest, k: Optional[int] = None) -> List[Any]:
        breaker = self.breakers["search"]
        if breaker.allow():
            try:
                matches = self._call(
                    "search",
                    lambda: self.inner.search(request, k),
                    self.config.search_deadline_s,
                    breaker,
                    enforce_deadline=True,
                )
                self._search_tier[request.request_id] = "optimized"
                self.stats.breaker_trips = sum(
                    b.trips for b in self.breakers.values()
                )
                return matches
            except XARError:
                pass  # degrade below
        else:
            self.stats.short_circuits += 1
            self._inc(self._m_short, op="search")
        self.stats.breaker_trips = sum(b.trips for b in self.breakers.values())
        self._sync_breaker_metrics()

        engine = self.raw_engine()
        if engine is not None:
            try:
                matches = grid_scan_search(engine, request, k)
                self.stats.fallback_searches += 1
                self._inc(self._m_fallback)
                self._search_tier[request.request_id] = "grid_fallback"
                return matches
            except XARError:
                pass
        # Final tier: no matches — create-on-miss will serve the request.
        self._search_tier[request.request_id] = "create_on_miss"
        return []

    def book(self, request: RideRequest, match: Any) -> Any:
        breaker = self.breakers["route"]
        if not breaker.allow():
            # Fail fast: the routing back-end is known-bad, so don't burn a
            # retry budget per match — the caller degrades to create-on-miss
            # (create still attempts, acting as the half-open probe).
            self.stats.short_circuits += 1
            self._inc(self._m_short, op="book")
            raise CircuitOpenError("book")
        record = self._call(
            "book",
            lambda: self.inner.book(request, match),
            self.config.book_deadline_s,
            self.breakers["route"],
            enforce_deadline=False,
        )
        tier = self._search_tier.pop(request.request_id, "optimized")
        self.stats.tiers[tier] = self.stats.tiers.get(tier, 0) + 1
        self._inc(self._m_tiers, tier=tier)
        self.stats.breaker_trips = sum(b.trips for b in self.breakers.values())
        self._sync_breaker_metrics()
        return record

    def track_all(self, now_s: float) -> int:
        return self._call(
            "track_all",
            lambda: self.inner.track_all(now_s),
            self.config.track_deadline_s,
            None,
            enforce_deadline=False,
        )

    # ------------------------------------------------------------------
    # Introspection / composition
    # ------------------------------------------------------------------
    def raw_engine(self) -> Optional[Any]:
        """The underlying XAREngine, unwrapped through adapter layers."""
        return raw_engine(self.inner)

    def resilience_stats(self) -> Dict[str, Any]:
        """Counters for the simulation report."""
        self.stats.breaker_trips = sum(b.trips for b in self.breakers.values())
        self._sync_breaker_metrics()
        out: Dict[str, Any] = self.stats.as_dict()
        out["tiers"] = dict(self.stats.tiers)
        out["breaker_states"] = {
            name: breaker.state for name, breaker in self.breakers.items()
        }
        return out

    def __getattr__(self, name: str) -> Any:
        # Composability: expose inner-adapter extras (on_request, engine,
        # fault_stats, rollback_count, ...) without enumerating them.
        return getattr(self.inner, name)
