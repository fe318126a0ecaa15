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
from ..exceptions import NoPathError, TransientFaultError, WorkerCrashError
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


class WorkerCrash(FaultPolicy):
    """Seeded worker deaths: a mutating op raises
    :class:`~repro.exceptions.WorkerCrashError` instead of running.

    Three flavours, matching the windows durability must close:

    * ``rate`` — the op dies *before* it starts (crash between dequeue and
      execute; nothing logged, nothing applied);
    * ``mid_book_rate`` — arms the engine's one-shot ``fault_hook`` so the
      booking dies **between its WAL append + transactional snapshot and
      the route splice**: the op is on disk but not applied, the exact gap
      crash recovery replays forward;
    * ``kill=True`` — process mode: instead of raising in the caller, the
      policy SIGKILLs a random shard *subprocess* through the stack's
      ``crash_shard(victim, kill=True)`` hook (the op then proceeds against
      the dying fleet — in-flight RPCs see EOF exactly as a real crash).
      Falls back to the in-process raise when the stack has no
      ``crash_shard`` (e.g. a bare engine).

    Only meaningful on a stack with a durability layer underneath (a plain
    engine cannot recover); the service's failover supervisor — thread
    router or process supervisor — catches the death, replays the shard's
    WAL and resumes.
    """

    name = "crash"

    def __init__(self, rate: float = 0.0, mid_book_rate: float = 0.0,
                 kill: bool = False):
        super().__init__()
        if not (0.0 <= rate <= 1.0) or not (0.0 <= mid_book_rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate
        self.mid_book_rate = mid_book_rate
        self.kill = kill

    def _kill_one(self, ctx: FaultContext, *, mid_book: bool) -> bool:
        """SIGKILL flavour: crash a random shard via the stack's own chaos
        hook; False when the stack cannot kill (caller raises instead)."""
        stack = ctx.adapter.inner
        crash_shard = getattr(stack, "crash_shard", None)
        n_shards = getattr(stack, "n_shards", 0)
        if crash_shard is None or not n_shards:
            return False
        victim = ctx.rng.randrange(n_shards)
        try:
            crash_shard(victim, mid_book=mid_book, kill=True)
        except Exception:  # noqa: BLE001 - chaos must never take down the run
            return False
        self.injections += 1
        return True

    def _roll(self, ctx: FaultContext, operation: str) -> None:
        if self.rate > 0 and ctx.rng.random() < self.rate:
            if self.kill and self._kill_one(ctx, mid_book=False):
                return
            self.injections += 1
            raise WorkerCrashError(f"injected worker crash before {operation}")

    def before_create(self, ctx: FaultContext) -> None:
        self._roll(ctx, "create")

    def before_book(self, ctx: FaultContext) -> None:
        if self.mid_book_rate > 0 and ctx.rng.random() < self.mid_book_rate:
            if self.kill and self._kill_one(ctx, mid_book=True):
                return
            engine = ctx.engine
            if engine is not None:
                self.injections += 1

                def hook(point: str) -> None:
                    if point == "book:post-snapshot":
                        engine.fault_hook = None
                        raise WorkerCrashError(f"injected crash at {point}")

                engine.fault_hook = hook
                return
        self._roll(ctx, "book")


class TornWrite(FaultPolicy):
    """Torn tail on crash: the dying shard's WAL loses random tail bytes.

    Models the difference between a process death (flushed bytes survive)
    and a power cut (the last, not-yet-fsynced frames are half-written).
    The policy itself never fires during normal operation — call
    :meth:`maybe_tear` on the WAL path *after* a crash, before recovery
    runs; with probability ``rate`` it truncates the file at a uniformly
    random byte offset past the header.  Recovery must then detect the torn
    tail via CRC framing and resume from the last complete record.
    """

    name = "torn-write"

    def __init__(self, rate: float = 1.0, max_tear_bytes: int = 256):
        super().__init__()
        if not (0.0 <= rate <= 1.0):
            raise ValueError("fault rates must be within [0, 1]")
        self.rate = rate
        self.max_tear_bytes = max(1, max_tear_bytes)
        self.rng = random.Random(0xBAD5EED)

    def seed(self, seed: int) -> "TornWrite":
        self.rng = random.Random(seed)
        return self

    def maybe_tear(self, wal_path: str) -> int:
        """Truncate the WAL at a random byte; returns bytes torn off (0 =
        the dice said no, or the log holds nothing beyond its header)."""
        import os

        from ..durability.wal import iter_frames

        if self.rate <= 0 or self.rng.random() >= self.rate:
            return 0
        size = os.path.getsize(wal_path)
        frames = iter_frames(wal_path)
        try:
            next(frames)  # header
            second = next(frames)
        except StopIteration:
            return 0  # header only (or less): nothing to tear
        # Never tear into the header frame — a destroyed header is file
        # corruption, not a torn tail; a power cut can also only lose bytes
        # near the (un-fsynced) end, hence the max_tear_bytes bound.
        header_end = second.offset
        if header_end >= size:
            return 0
        tear_at = self.rng.randrange(
            max(header_end, size - self.max_tear_bytes), size
        )
        with open(wal_path, "r+b") as handle:
            handle.truncate(tear_at)
        self.injections += 1
        return size - tear_at


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
