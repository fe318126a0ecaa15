"""The router core: one sharded-service façade over any shard transport.

:class:`RouterCore` speaks the simulator's ``EngineAdapter`` protocol, so
everything that can drive one engine — the replay simulator, the load
generator, the fault injector, the HTTP gateway — can drive a whole fleet
unchanged.  It owns *what happens to an operation*; where a shard runs is
the transport's business (:mod:`~repro.service.transport`) and which slot an
operation belongs to is the routing table's (:mod:`~repro.service.routing`).

Routing rules (docs/service.md): **create** goes to the slot owning the ride
source's cluster, and every slot allocates ride ids from its own arithmetic
lane, so ``book``/``cancel`` route by ride id; **search** fans out to the
slots owning walkable clusters of the request (or all of them) and
k-way-merges their batches by the engine's ranking key, reproducing the
single-engine ordering exactly; **track** broadcasts behind a monotone
watermark; a slot that cannot take an operation sheds it with
:class:`~repro.exceptions.ShardOverloadError`, and a partially shed fan-out
search still serves from the slots that accepted.

**Elastic resharding** (``reshard=ReshardConfig(...)``): the routing table
becomes epoch-versioned and :meth:`~RouterCore.split_shard` /
:meth:`~RouterCore.merge_shards` run the one reshard machine
(:mod:`~repro.service.machine`).  Every single-slot operation then carries
a *guard* ("does routing still point here?") that the transport evaluates at
the last moment before the op would apply; when it fails the op has touched
nothing and the core re-resolves and resubmits, so an operation that waits
out a reshard lands on the slot that owns its ride or source cluster *after*
the swap.  No lost ops, no double-apply.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from ..core.booking import BookingRecord
from ..core.request import RideRequest
from ..core.search import MatchOption
from ..discretization import DiscretizedRegion
from ..exceptions import (
    DeadlineExceededError,
    ReshardError,
    RpcError,
    ServiceClosedError,
    ShardOverloadError,
    WorkerCrashError,
    XARError,
)
from ..geo import GeoPoint
from ..obs import FANOUT_BUCKETS, MetricsRegistry
from .machine import ReshardMachine
from .routing import RoutingTable
from .stack import Rerouted
from .transport import ShardTransport


class RouterCore:
    """Sharded ride-matching service (EngineAdapter-shaped).

    Subclasses are thin constructors that pick a transport; they also
    provide ``_merge(batches, k)``, calling the k-way merge through their
    own module's ``merge_matches`` global (the per-deployment seam the
    benchmark's tracer wraps).
    """

    def __init__(
        self,
        region: DiscretizedRegion,
        table: RoutingTable,
        transport: ShardTransport,
        *,
        label: str,
        fanout: str,
        fanout_radius_m: Optional[float],
        metrics: MetricsRegistry,
    ):
        self.region = region
        self.table = table
        self.transport = transport
        self.shard_map = table.shard_map
        self.reshard_config = table.reshard
        self.fanout = fanout
        #: Neighbor expansion radius for local fan-out; defaults to the
        #: region's approximation radius ε (clusters within one guarantee
        #: band of the request are consulted too).
        self.fanout_radius_m = (
            fanout_radius_m
            if fanout_radius_m is not None
            else region.config.epsilon_m
        )
        self._label = label
        self._closed = False
        #: The service's metric registry: every shard engine, worker and
        #: router-level counter reports here (pass a shared registry to
        #: co-locate load-generator series in the same exposition).
        self.metrics = metrics
        self._c_partial = metrics.counter(
            "xar_router_partial_searches_total",
            "Fan-out searches that lost >= 1 shard to shedding but were "
            "still served from the rest (degraded recall, not failure)",
        )
        self._c_search_failures = metrics.counter(
            "xar_router_search_failures_total",
            "Per-shard search calls that raised and contributed an empty "
            "batch instead of failing the whole fan-out",
        )
        self._c_shed_searches = metrics.counter(
            "xar_router_shed_searches_total",
            "Searches refused outright: every consulted shard shed",
        )
        self._c_ticks = metrics.counter(
            "xar_router_track_ticks_total",
            "Tracking ticks by outcome: applied (>= 1 shard swept), "
            "coalesced (not later than the committed watermark), dropped "
            "(every shard shed; the watermark did NOT advance, so a retry "
            "at the same timestamp will sweep)",
            labels=("outcome",),
        )
        self._h_fanout = metrics.histogram(
            "xar_router_fanout_width",
            "Shards consulted per fan-out search",
            buckets=FANOUT_BUCKETS,
        )
        # Pre-create every child so the exposition always carries the full
        # router series set, zeros included (scrape-friendly and lets CI
        # assert on names without first forcing traffic through each path).
        for family in (self._c_partial, self._c_search_failures,
                       self._c_shed_searches, self._h_fanout):
            family.labels()
        for outcome in ("applied", "coalesced", "dropped"):
            self._c_ticks.labels(outcome=outcome)
        self._last_track_s: Optional[float] = None
        self._track_lock = threading.Lock()
        self._machine = (
            ReshardMachine(region, table, transport, metrics)
            if table.reshard is not None else None
        )

    @staticmethod
    def _check_fanout(fanout: str) -> None:
        if fanout not in ("local", "all"):
            raise ValueError(f"fanout must be 'local' or 'all', got {fanout!r}")

    # ------------------------------------------------------------------
    # Topology and counter read-throughs
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self._label}(XAR x{len(self.table.active_slots())})"

    @property
    def n_shards(self) -> int:
        """Slots ever created (merged-away ones keep their id)."""
        return self.table.n_slots

    @property
    def partial_searches(self) -> int:
        """Fan-out searches that lost at least one shard to shedding but
        were still served from the rest (degraded recall, not failure)."""
        return int(self._c_partial.value)

    @property
    def search_failures(self) -> int:
        """Per-shard search calls that raised an XARError and contributed
        an empty batch instead of failing the whole fan-out."""
        return int(self._c_search_failures.value)

    @property
    def dropped_ticks(self) -> int:
        """Tracking ticks every shard shed (watermark rolled back)."""
        return int(self._c_ticks.labels(outcome="dropped").value)

    @property
    def last_recoveries(self) -> Dict[int, Dict[str, Any]]:
        """Per-slot summary of the latest crash recovery (restart, failover
        or respawn) each live shard booted through."""
        return self.transport.recoveries()

    def active_slot_ids(self) -> List[int]:
        return list(self.table.active_slots())

    def shard_of_ride(self, ride_id: int) -> int:
        """Home slot of a ride id (lanes, migrations, merge redirects)."""
        return self.table.shard_of_ride(ride_id)

    def shards_for_request(self, request: RideRequest) -> List[int]:
        if self.fanout == "all":
            return self.table.active_slots()
        return self.table.shards_for_request(request, self.fanout_radius_m)

    # ------------------------------------------------------------------
    # Single-slot operations: resolve, guard, re-resolve
    # ------------------------------------------------------------------
    def _routed(self, op: str, resolve: Callable[[], int], *args: Any) -> Any:
        """Run one single-slot table op wherever routing points *now*.

        The transport gets a guard that re-resolves right before the op
        applies; :class:`Rerouted` means it failed (a reshard swapped the
        tables while the op was queued or its shard was down) or the shard
        died before the op started — resolve again.  Static services carry
        no guard: their routing is a constant.
        """
        guarded = self.table.reshard is not None
        while True:
            slot = resolve()
            guard = (lambda slot=slot: resolve() == slot) if guarded else None
            try:
                return self.transport.call(op, slot, guard, *args)
            except Rerouted:
                continue

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ) -> Any:
        return self._routed(
            "create", lambda: self.table.slot_of_point(source),
            source, destination, depart_s, seats, detour_limit_m, shift_end_s,
        )

    def book(self, request: RideRequest, match: MatchOption) -> BookingRecord:
        return self._routed(
            "book", lambda: self.table.shard_of_ride(match.ride_id),
            request, match,
        )

    def cancel(self, ride: Any) -> None:
        self._routed(
            "cancel", lambda: self.table.shard_of_ride(ride.ride_id), ride,
        )

    def cancel_booking(self, request_id: int, ride_id: int) -> Any:
        """Cancel one passenger's booking on the ride's home slot."""
        return self._routed(
            "cancel_booking", lambda: self.table.shard_of_ride(ride_id),
            request_id, ride_id,
        )

    def find_ride(self, ride_id: int) -> Any:
        """Resolve a ride (live or completed) on its home slot."""
        return self._routed(
            "find_ride", lambda: self.table.shard_of_ride(ride_id), ride_id,
        )

    # ------------------------------------------------------------------
    # Fan-out operations
    # ------------------------------------------------------------------
    def search(self, request: RideRequest,
               k: Optional[int] = None) -> List[MatchOption]:
        """Fan out to the request's slots and k-way-merge their answers.

        The transport hands back one gatherable per slot: process shards
        are all scanning by then; thread shards have searched in one pass,
        whose ranked batch one gatherable returns (an empty batch is not
        merged).

        A slot that sheds — concurrency budget exhausted, quarantined,
        mid-restart, or retired out from under the fan-out by a concurrent
        reshard (its rides are served from the successor slots on the next
        search) — degrades the search to partial results; only when *every*
        consulted slot refuses is the search itself shed.  A slot whose
        search raises contributes an empty batch and a failure count.
        """
        shed = served = 0
        batches: List[List[MatchOption]] = []
        errors: List[XARError] = []
        slots = self.shards_for_request(request)
        self._h_fanout.observe(len(slots))
        for gather in self.transport.search_many(slots, request, k):
            try:
                batch = gather()
            except (ShardOverloadError, WorkerCrashError):
                shed += 1
                continue
            except XARError as exc:
                self._c_search_failures.inc()
                errors.append(exc)
                continue
            served += 1
            if batch:
                batches.append(batch)
        if shed and (served or errors):
            self._c_partial.inc()
        if not served:
            if shed or not errors:
                # Every consulted slot refused: the search itself is shed.
                self._c_shed_searches.inc()
                raise ShardOverloadError(-1, "search")
            raise errors[0]
        return self._merge(batches, k)

    def track_all(self, now_s: float) -> int:
        """Broadcast a tracking tick; each slot sweeps only its rides.

        Ticks are batched: a tick at a simulated time no later than the last
        one already *accepted somewhere* is skipped entirely (the
        obsolescence sweep is monotone in time), so redundant ticks from
        concurrent drivers cost nothing.  A slot that cannot take the tick
        drops it — tracking is best-effort per slot.

        The watermark commits **only after at least one slot accepts the
        tick**.  Committing it up front permanently lost any tick every
        slot shed: a retry at the same simulated time compared equal to the
        watermark and was coalesced away, so the sweep never ran even once
        the queues drained.  Outcomes are counted in
        ``xar_router_track_ticks_total{outcome=applied|coalesced|dropped}``.
        """
        with self._track_lock:
            if self._last_track_s is not None and now_s <= self._last_track_s:
                self._c_ticks.labels(outcome="coalesced").inc()
                return 0
            sweeps = []
            for slot in self.table.active_slots():
                try:
                    sweeps.append(self.transport.track(slot, now_s))
                except (ShardOverloadError, WorkerCrashError,
                        DeadlineExceededError, RpcError):
                    continue
            if not sweeps:
                # Every slot shed.  Leave the watermark where it was so a
                # retry at the same timestamp is NOT coalesced away.
                self._c_ticks.labels(outcome="dropped").inc()
                return 0
            # >= 1 slot holds the tick: the sweep up to now_s will happen,
            # so the watermark may advance.
            self._last_track_s = now_s
            self._c_ticks.labels(outcome="applied").inc()
        return sum(sweep() for sweep in sweeps)

    def _gather(self, op: str, *args: Any) -> List[Any]:
        """A per-slot table op, asked of every active slot in slot order."""
        return [self.transport.call(op, slot, None, *args)
                for slot in self.table.active_slots()]

    def active_rides(self) -> List[Any]:
        return [
            ride
            for rides in self._gather("active_rides")
            for ride in rides
        ]

    def bookings(self) -> List[BookingRecord]:
        """All slots' booking ledgers, concatenated slot-by-slot."""
        return [
            record
            for ledger in self._gather("bookings")
            for record in ledger
        ]

    def rollback_count(self) -> int:
        return sum(self._gather("rollback_count"))

    def index_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stats in self._gather("index_stats"):
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # Service introspection
    # ------------------------------------------------------------------
    def audit(self, heal: bool = False) -> Dict[str, Any]:
        """Run the invariant auditor on every slot, inside its worker.

        Returns total violations plus the per-slot breakdown; with
        ``heal=True`` index damage is repaired and a second sweep verifies.
        """
        per_shard: Dict[int, int] = {}
        healed = 0
        for slot in self.table.active_slots():
            per_shard[slot], actions = self.transport.call(
                "audit", slot, None, heal)
            healed += actions
        return {
            "violations": sum(per_shard.values()),
            "per_shard": per_shard,
            "healed": healed,
        }

    def _slot_stats(self) -> List[Dict[str, Any]]:
        return [
            {
                "shard_id": slot,
                "clusters": len(self.shard_map.clusters_of_shard(slot)),
                **self.transport.stats(slot),
            }
            for slot in self.table.active_slots()
        ]

    def stats(self) -> Dict[str, Any]:
        """Service-level counters: queue/shed stats, rides, bookings."""
        shard_stats = self._slot_stats()
        return {
            "name": self.name,
            "n_shards": len(shard_stats),
            "epoch": self.table.epoch,
            "fanout": self.fanout,
            "fanout_radius_m": self.fanout_radius_m,
            "total_shed": sum(
                sum(stats.get("shed", {}).values()) for stats in shard_stats
            ),
            "partial_searches": self.partial_searches,
            "search_failures": self.search_failures,
            "dropped_ticks": self.dropped_ticks,
            "states": self.transport.states(),
            "shards": shard_stats,
        }

    def shard_loads(self) -> Dict[int, Dict[str, float]]:
        """Per-active-slot load signals for the reshard controller.

        ``ops`` (lifetime completed jobs), ``queue`` (current depth),
        ``rides`` (live rides), ``clusters`` (owned cluster count — split
        eligibility) and ``p95_s``, the worst per-op p95 of the transport's
        latency series (``load_metric``).
        """
        p95: Dict[int, float] = {}
        family = self.metrics.get(self.transport.load_metric)
        if family is not None:
            for labels, child in family.collect():
                if child.count == 0:
                    continue
                quantile = child.quantile(0.95)
                if quantile == quantile:  # NaN-guard
                    slot = int(labels.get("shard", "-1"))
                    p95[slot] = max(p95.get(slot, 0.0), quantile)
        loads: Dict[int, Dict[str, float]] = {}
        for stats in self._slot_stats():
            loads[stats["shard_id"]] = {
                "ops": float(sum(stats.get("completed", {}).values())),
                "queue": float(stats.get("depth", 0)),
                "p95_s": p95.get(stats["shard_id"], 0.0),
                "rides": float(stats.get("rides", 0)),
                "clusters": float(stats["clusters"]),
            }
        return loads

    # ------------------------------------------------------------------
    # Elastic resharding, chaos, lifecycle
    # ------------------------------------------------------------------
    def _reshard_machine(self) -> ReshardMachine:
        if self._closed:
            raise ServiceClosedError("service is shut down")
        if self._machine is None:
            raise ReshardError(
                "service is not in reshard mode: construct the router with "
                "reshard=ReshardConfig(...) (thread mode: and durability) "
                "to enable split/merge"
            )
        return self._machine

    def split_shard(self, shard_id: int, *,
                    fault_hook: Optional[Callable[[str], None]] = None) -> int:
        """Split one hot slot into two at a load-weighted cluster boundary;
        returns the new slot id (see :mod:`~repro.service.machine`)."""
        return self._reshard_machine().split(shard_id, fault_hook=fault_hook)

    def merge_shards(self, dst_id: int, src_id: int, *,
                     fault_hook: Optional[Callable[[str], None]] = None) -> int:
        """Fold one cold slot into another; returns the destination slot."""
        return self._reshard_machine().merge(
            dst_id, src_id, fault_hook=fault_hook
        )

    def crash_shard(self, shard_id: int, *, mid_book: bool = False,
                    kill: bool = True) -> None:
        """Chaos hook: kill one shard as a process death would, or — with
        ``mid_book`` — arm a one-shot hook that kills its *next booking*
        between the transactional snapshot and the route splice.  ``kill``
        is accepted for call-site compatibility: a shard has one way to die
        per transport (SIGKILL, or a poisoned job on a worker thread)."""
        del kill
        self.transport.crash(self.table.resolve(shard_id), mid_book=mid_book)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.transport.close()

    def abandon(self) -> None:
        """Process-death teardown (crash harnesses): every shard dies as
        under SIGKILL — no drain, no final fsync — and the service is
        closed; reopen its directory to recover."""
        self._closed = True
        self.transport.abandon()

    def __enter__(self) -> "RouterCore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
