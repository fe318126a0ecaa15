"""Composable, seedable fault injection for the simulator.

Agent-based ride-share platforms (HRSim, RidePy) treat failure dynamics —
cancellations, no-shows, degraded service — as first-class simulation
inputs.  This module brings that to the XAR replay loop: *fault policies*
are injected through the adapter layer, so neither the engine nor the
simulator's control flow knows whether it is running on clean or hostile
infrastructure.

Policies (each with its own deterministic RNG derived from the adapter
seed, so runs replay bit-identically):

* :class:`RouterFault` — the routing back-end fails transiently
  (``NoPathError``) or stalls (latency spikes) on the shortest-path-bound
  operations (create / book); optionally stalls search too, modelling a
  shared ETA service;
* :class:`TrackingDropout` — whole ``track_all`` sweeps are dropped (GPS /
  telemetry outage), leaving obsolete clusters stale;
* :class:`DriverCancellation` — per processed request, a random
  not-yet-departed ride is withdrawn (replaces the legacy
  ``SimulatorConfig.cancellation_rate`` draw);
* :class:`IndexCorruption` — random ⟨ride, eta⟩ tuples vanish from the
  cluster index (lost updates / partial failures), the damage class the
  invariant auditor detects and heals.

Compose them with :class:`FaultInjectingAdapter`::

    adapter = FaultInjectingAdapter(
        XARAdapter(engine),
        policies=[RouterFault(rate=0.05), TrackingDropout(rate=0.1),
                  DriverCancellation(rate=0.02), IndexCorruption(rate=0.01)],
        seed=7,
    )
    report = RideShareSimulator(adapter, config).run(requests)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.request import RideRequest
from ..exceptions import NoPathError, TransientFaultError
from ..geo import GeoPoint
from .adapters import DelegatingAdapter, raw_engine


@dataclass
class FaultContext:
    """What a policy sees when it fires: its RNG and the world."""

    rng: random.Random
    adapter: "FaultInjectingAdapter"
    now_s: float = 0.0

    @property
    def engine(self) -> Optional[Any]:
        """The raw XAREngine under the adapter stack, if any."""
        return self.adapter.raw_engine()


class FaultPolicy:
    """Base class: every hook is a no-op; override what the fault touches."""

    name = "fault"

    def __init__(self) -> None:
        self.injections = 0

    def on_request(self, ctx: FaultContext) -> None:
        """Fires once per processed request (before its operations)."""

    def before_create(self, ctx: FaultContext) -> None:
        """May raise to fail the create call."""

    def before_book(self, ctx: FaultContext) -> None:
        """May raise to fail the book call."""

    def before_search(self, ctx: FaultContext) -> None:
        """May raise/stall to fail the search call."""

    def allow_track(self, ctx: FaultContext) -> bool:
        """Return False to drop this track sweep."""
        return True


class RouterFault(FaultPolicy):
    """Transient routing failures and latency spikes.

    ``rate`` — probability a create/book call raises ``NoPathError``
    (transient: an immediate retry re-rolls the dice);
    ``latency_rate``/``latency_s`` — probability and duration of a stall
    injected into create/book (and search when ``stall_search``), which
    per-operation deadlines are meant to catch.
    """

    name = "router"

    def __init__(
        self,
        rate: float = 0.05,
        latency_rate: float = 0.0,
        latency_s: float = 0.0,
        stall_search: bool = False,
        sleep=time.sleep,
    ):
        super().__init__()
        if not (0.0 <= rate <= 1.0) or not (0.0 <= latency_rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate
        self.latency_rate = latency_rate
        self.latency_s = latency_s
        self.stall_search = stall_search
        self._sleep = sleep

    def _roll(self, ctx: FaultContext) -> None:
        if self.latency_rate > 0 and ctx.rng.random() < self.latency_rate:
            self.injections += 1
            self._sleep(self.latency_s)
        if self.rate > 0 and ctx.rng.random() < self.rate:
            self.injections += 1
            raise NoPathError(-1, -1)

    def before_create(self, ctx: FaultContext) -> None:
        self._roll(ctx)

    def before_book(self, ctx: FaultContext) -> None:
        self._roll(ctx)

    def before_search(self, ctx: FaultContext) -> None:
        if not self.stall_search:
            return
        if self.latency_rate > 0 and ctx.rng.random() < self.latency_rate:
            self.injections += 1
            self._sleep(self.latency_s)
        if self.rate > 0 and ctx.rng.random() < self.rate:
            self.injections += 1
            raise TransientFaultError("search backend unavailable")


class TrackingDropout(FaultPolicy):
    """GPS/telemetry outage: whole track sweeps silently vanish."""

    name = "tracking"

    def __init__(self, rate: float = 0.1):
        super().__init__()
        if not (0.0 <= rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate

    def allow_track(self, ctx: FaultContext) -> bool:
        if self.rate > 0 and ctx.rng.random() < self.rate:
            self.injections += 1
            return False
        return True


class DriverCancellation(FaultPolicy):
    """A driver still on the road gives up; the ride is withdrawn."""

    name = "cancellation"

    def __init__(self, rate: float = 0.02):
        super().__init__()
        if not (0.0 <= rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate

    def on_request(self, ctx: FaultContext) -> None:
        if self.rate <= 0 or ctx.rng.random() >= self.rate:
            return
        pending = [
            ride
            for ride in ctx.adapter.active_rides()
            if getattr(ride, "arrival_s", float("inf")) > ctx.now_s
        ]
        if not pending:
            return
        ctx.adapter.cancel_injected(ctx.rng.choice(pending))
        self.injections += 1


class IndexCorruption(FaultPolicy):
    """Random cluster-index tuples vanish (lost update / partial failure).

    Only applies when the adapter stack bottoms out at an engine exposing a
    ``cluster_index``; silently inert otherwise (e.g. T-Share).
    """

    name = "index"

    def __init__(self, rate: float = 0.01, entries_per_event: int = 1):
        super().__init__()
        if not (0.0 <= rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate
        self.entries_per_event = max(1, entries_per_event)

    def on_request(self, ctx: FaultContext) -> None:
        if self.rate <= 0 or ctx.rng.random() >= self.rate:
            return
        engine = ctx.engine
        if engine is None:
            return
        index = engine.cluster_index
        populated = [
            cluster_id
            for cluster_id in range(index.n_clusters)
            if index.potential_count(cluster_id) > 0
        ]
        if not populated:
            return
        for _ in range(self.entries_per_event):
            cluster_id = ctx.rng.choice(populated)
            entries = list(index.all_rides(cluster_id))
            if not entries:
                continue
            victim = ctx.rng.choice(entries)
            index.remove(cluster_id, victim.ride_id)
            self.injections += 1


class FaultInjectingAdapter(DelegatingAdapter):
    """EngineAdapter decorator threading fault policies through every op."""

    def __init__(
        self,
        inner: Any,
        policies: Sequence[FaultPolicy],
        seed: int = 0,
    ):
        self.inner = inner
        self.policies = list(policies)
        self.name = getattr(inner, "name", "engine")
        #: One independent RNG per policy so adding a policy does not change
        #: the draws of the others (replayability under composition).  The
        #: derived seed avoids str hashing, which is randomized per process.
        self._contexts = [
            FaultContext(rng=random.Random(seed * 1_000_003 + index), adapter=self)
            for index, _policy in enumerate(self.policies)
        ]
        self.n_cancelled = 0

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def on_request(self, now_s: float) -> None:
        """Per-request fault pulse (cancellations, index corruption, ...)."""
        for policy, ctx in zip(self.policies, self._contexts):
            ctx.now_s = now_s
            policy.on_request(ctx)

    def cancel_injected(self, ride: Any) -> None:
        """Cancellation performed *by a policy* (counted separately)."""
        self.inner.cancel(ride)
        self.n_cancelled += 1

    def fault_stats(self) -> Dict[str, int]:
        return {policy.name: policy.injections for policy in self.policies}

    def raw_engine(self) -> Optional[Any]:
        return raw_engine(self.inner)

    # ------------------------------------------------------------------
    # EngineAdapter protocol: the ops a policy can fail, stall or drop
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
        for policy, ctx in zip(self.policies, self._contexts):
            policy.before_create(ctx)
        return super().create(source, destination, depart_s, seats,
                              detour_limit_m, shift_end_s)

    def search(self, request: RideRequest, k: Optional[int] = None) -> List[Any]:
        for policy, ctx in zip(self.policies, self._contexts):
            policy.before_search(ctx)
        return super().search(request, k)

    def book(self, request: RideRequest, match: Any) -> Any:
        for policy, ctx in zip(self.policies, self._contexts):
            policy.before_book(ctx)
        return super().book(request, match)

    def track_all(self, now_s: float) -> int:
        for policy, ctx in zip(self.policies, self._contexts):
            ctx.now_s = now_s
            if not policy.allow_track(ctx):
                return 0
        return super().track_all(now_s)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def default_fault_policies(
    router_rate: float = 0.05,
    tracking_rate: float = 0.1,
    cancellation_rate: float = 0.02,
    corruption_rate: float = 0.01,
) -> List[FaultPolicy]:
    """The four-policy suite at the acceptance-test rates."""
    return [
        RouterFault(rate=router_rate),
        TrackingDropout(rate=tracking_rate),
        DriverCancellation(rate=cancellation_rate),
        IndexCorruption(rate=corruption_rate),
    ]
