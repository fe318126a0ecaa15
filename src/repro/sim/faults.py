"""Composable, seedable fault injection for the simulator.

Agent-based ride-share platforms (HRSim, RidePy) treat failure dynamics —
cancellations, no-shows, degraded service — as first-class simulation
inputs.  This module brings that to the XAR replay loop: *fault policies*
are injected through the adapter layer, so neither the engine nor the
simulator's control flow knows whether it is running on clean or hostile
infrastructure.

Policies (each with its own deterministic RNG derived from the adapter
seed and the policy's position, so runs replay bit-identically):

* :class:`TrackingDropout` — whole ``track_all`` sweeps are dropped (GPS /
  telemetry outage), leaving obsolete clusters stale;
* :class:`DriverCancellation` — per processed request, a random
  not-yet-departed ride is withdrawn (replaces the legacy
  ``SimulatorConfig.cancellation_rate`` draw);
* :class:`IndexCorruption` — random ⟨ride, eta⟩ tuples vanish from the
  cluster index (lost updates / partial failures), the damage class the
  invariant auditor detects and heals.

A fault here is an input the engine lives with, never something it retries
away: the engine is deterministic, so a failed op fails the same way again.

Compose them with :class:`FaultInjectingAdapter`::

    adapter = FaultInjectingAdapter(
        XARAdapter(engine),
        policies=[TrackingDropout(rate=0.1), DriverCancellation(rate=0.02),
                  IndexCorruption(rate=0.01)],
        seed=7,
    )
    report = RideShareSimulator(adapter, config).run(requests)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

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

    def allow_track(self, ctx: FaultContext) -> bool:
        """Return False to drop this track sweep."""
        return True


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
    # EngineAdapter protocol: the one op a policy can drop
    # ------------------------------------------------------------------
    def track_all(self, now_s: float) -> int:
        for policy, ctx in zip(self.policies, self._contexts):
            ctx.now_s = now_s
            if not policy.allow_track(ctx):
                return 0
        return super().track_all(now_s)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def default_fault_policies(
    tracking_rate: float = 0.1,
    cancellation_rate: float = 0.02,
    corruption_rate: float = 0.01,
) -> List[FaultPolicy]:
    """The three-policy suite at the acceptance-test rates."""
    return [
        TrackingDropout(rate=tracking_rate),
        DriverCancellation(rate=cancellation_rate),
        IndexCorruption(rate=corruption_rate),
    ]


def parse_fault_policies(spec: str) -> List[FaultPolicy]:
    """The fault mini-language: ``dropout=0.1,cancel=0.02,corrupt=0.01``
    (a bare name takes rate 0.05).  Raises ValueError on an unknown policy
    or a bad rate."""
    makers = {
        "dropout": TrackingDropout,
        "cancel": DriverCancellation,
        "corrupt": IndexCorruption,
    }
    policies: List[FaultPolicy] = []
    for part in spec.split(","):
        name, _sep, value = part.strip().partition("=")
        if not name:
            continue
        if name not in makers:
            raise ValueError(
                f"unknown fault policy {name!r} (choose from {sorted(makers)})"
            )
        policies.append(makers[name](rate=float(value) if value else 0.05))
    return policies
