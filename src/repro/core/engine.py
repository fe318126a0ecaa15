"""The XAR engine: the paper's "run-time unit" façade (Section III).

Exposes the four runtime operations on top of a
:class:`~repro.discretization.model.DiscretizedRegion`:

* :meth:`XAREngine.create_ride` — O2: route the offer (the only other place
  shortest paths are allowed), compute pass-through and reachable clusters,
  and insert the ride into every relevant cluster's potential-ride lists;
* :meth:`XAREngine.search` — O1: the shortest-path-free two-step search;
* :meth:`XAREngine.book` — confirm a match, splice the route (≤ 4 shortest
  paths), charge seats and detour budget, re-index;
* :meth:`XAREngine.track` / :meth:`XAREngine.track_all` — O3: obsolete-
  cluster invalidation for rides on the move.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from ..discretization import DiscretizedRegion
from ..exceptions import RideError, UnknownRideError, XARError
from ..geo import GeoPoint
from ..index import ClusterRideIndex, FlatSearchIndex, RideIndexEntry
from ..obs import DETOUR_RATIO_BUCKETS, MetricsRegistry, Tracer, span_group
from ..roadnet import astar
from .booking import (
    BookingRecord,
    BookingRollback,
    CancellationRecord,
    book_ride,
    cancel_booking_ride,
)
from .reachability import build_ride_entry
from .request import RideRequest
from .ride import Ride, RideStatus
from .search import MatchOption, search_rides
from .tracking import apply_obsolescence, track_all, track_ride


class _IdSequence:
    """``itertools.count`` semantics plus peek/save/restore.

    Durability needs two things a plain ``count`` cannot do: the WAL predicts
    the ride id a create *will* allocate (``peek``), and a checkpoint restores
    the allocator so replayed and live allocations line up exactly.
    """

    __slots__ = ("next_value", "step")

    def __init__(self, start: int, step: int = 1):
        self.next_value = start
        self.step = step

    def __next__(self) -> int:
        value = self.next_value
        self.next_value += self.step
        return value

    def peek(self) -> int:
        return self.next_value


class XAREngine:
    """A running XAR instance over one discretized region."""

    def __init__(
        self,
        region: DiscretizedRegion,
        detour_slack_m: Optional[float] = None,
        optimize_insertion: bool = False,
        strict_coverage: bool = False,
        ride_id_start: int = 1,
        ride_id_step: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[Dict[str, str]] = None,
        use_flat_index: bool = True,
    ):
        self.region = region
        #: When True, ``create_ride`` and ``search`` raise
        #: :class:`~repro.exceptions.UncoveredLocationError` for locations
        #: the discretization cannot serve (Section IV semantics), instead
        #: of snapping/returning no matches.
        self.strict_coverage = strict_coverage
        #: When True, booking scores every supported segment pair with the
        #: landmark matrix and splices the cheapest (still <= 4 shortest
        #: paths) — see booking._best_segment_pair.
        self.optimize_insertion = optimize_insertion
        self.cluster_index = ClusterRideIndex(region.n_clusters)
        #: Flat struct-of-arrays mirror of the cluster index + per-ride
        #: budgets; when present, ``search`` runs the vectorized two-step
        #: path over it (identical results to the legacy per-object scan —
        #: ``use_flat_index=False`` keeps the legacy path for differential
        #: comparison).  Maintained at every mutation seam below.
        self.flat_index: Optional[FlatSearchIndex] = (
            FlatSearchIndex(region.n_clusters) if use_flat_index else None
        )
        self.rides: Dict[int, Ride] = {}
        self.completed_rides: Dict[int, Ride] = {}
        self.ride_entries: Dict[int, RideIndexEntry] = {}
        self.bookings: List[BookingRecord] = []
        self.rollbacks: List[BookingRollback] = []
        self.cancellations: List[CancellationRecord] = []
        self.tracked_to: Dict[int, float] = {}
        #: Additive tolerance on the detour budget at booking time; defaults
        #: to the theoretical worst case 4ε (ε = 4δ, Theorem 6 + Section V).
        self.detour_slack_m = (
            detour_slack_m
            if detour_slack_m is not None
            else 4.0 * region.config.epsilon_m
        )
        #: Ride-id lane: a sharded deployment gives each shard engine a
        #: disjoint arithmetic progression (start=shard_id+1, step=n_shards)
        #: so ride ids stay globally unique and encode their home shard.
        if ride_id_start < 1 or ride_id_step < 1:
            raise ValueError("ride_id_start and ride_id_step must be >= 1")
        self._ride_ids = _IdSequence(ride_id_start, ride_id_step)
        self._request_ids = _IdSequence(1)
        #: Optional crash-injection seam: when set, called at named points
        #: inside mutating operations (currently ``"book:post-snapshot"``,
        #: between the transactional snapshot and the route splice).  A hook
        #: that raises a non-XARError (e.g.
        #: :class:`~repro.exceptions.WorkerCrashError`) aborts the operation
        #: *without* triggering the rollback bookkeeping — modelling a
        #: process that died mid-operation rather than an operation that
        #: failed cleanly.
        self.fault_hook: Optional[Callable[[str], None]] = None
        #: Per-stage operation timing (search: snap → cluster_lookup →
        #: candidate_scan → feasibility_filter → rank_merge; book:
        #: snapshot → splice → reindex; track: sweep; create: snap →
        #: route → index) into ``metrics``; a ``None`` registry hands out
        #: null spans, so an uninstrumented engine pays nothing.
        self.tracer = Tracer(metrics, labels=metrics_labels)
        self.metrics = metrics
        #: Match-quality instruments (same extra labels as the tracer, so a
        #: sharded deployment gets per-shard series): detour-to-direct ratio
        #: of the best match, and searches that came back empty.  ``None``
        #: registry == no quality series, zero overhead.
        if metrics is not None:
            quality_labels = dict(metrics_labels or {})
            extra = tuple(sorted(quality_labels))
            self._h_detour_ratio = metrics.histogram(
                "xar_match_detour_ratio",
                "Best-match detour estimate over direct trip distance",
                labels=extra,
                buckets=DETOUR_RATIO_BUCKETS,
            ).labels(**quality_labels)
            self._c_search_empty = metrics.counter(
                "xar_search_empty_total",
                "Searches that returned no feasible match",
                labels=extra,
            ).labels(**quality_labels)
        else:
            self._h_detour_ratio = None
            self._c_search_empty = None
        #: Guards all mutable engine state (rides, index, ledgers).  Public
        #: operations take it, so a concurrent ``search`` can never observe a
        #: half-spliced route mid-``book``; reentrant because ``book`` calls
        #: ``reindex_ride`` internally.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # O2: ride creation
    # ------------------------------------------------------------------
    def create_ride(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        departure_s: float,
        detour_limit_m: Optional[float] = None,
        seats: Optional[int] = None,
        route: Optional[Sequence[int]] = None,
        driver_id: Optional[int] = None,
        shift_end_s: Optional[float] = None,
    ) -> Ride:
        """Offer a new ride; routes via shortest path unless ``route`` given."""
        config = self.region.config
        network = self.region.network
        span = self.tracer.span("create")
        try:
            with span.stage("snap"):
                if self.strict_coverage:
                    self.region.require_covered(source)
                    self.region.require_covered(destination)
                source_node = network.snap(source)
                destination_node = network.snap(destination)
            if source_node == destination_node:
                raise RideError("ride source and destination snap to the same node")
            if route is None:
                with span.stage("route"):
                    _length, route = astar(network, source_node, destination_node)
            ride = Ride(
                ride_id=next(self._ride_ids),
                network=network,
                route=route,
                departure_s=departure_s,
                detour_limit_m=(
                    detour_limit_m if detour_limit_m is not None else config.default_detour_m
                ),
                seats=seats if seats is not None else config.default_seats,
                source_point=source,
                destination_point=destination,
                driver_id=driver_id,
                shift_end_s=shift_end_s,
            )
            with self.lock:
                with span.stage("index"):
                    self.rides[ride.ride_id] = ride
                    self._index_ride(ride)
            return ride
        finally:
            span.finish()

    def _index_ride(self, ride: Ride) -> None:
        if ride.retired:
            # A retired ride keeps draining its passengers but never
            # re-enters the search index (shift-end semantics).
            return
        entry = build_ride_entry(self.region, ride)
        self.ride_entries[ride.ride_id] = entry
        # ``update`` (not ``add``): each reachable cluster appears once in
        # the entry with its merged earliest ETA, so there is nothing left
        # for add's earliest-wins rule to arbitrate — and if a stale stray
        # row survived an earlier corruption, add would silently keep its
        # outdated ETA where update replaces it with the recomputed one.
        etas = entry.reachable_etas()
        for cluster_id, eta_s in etas.items():
            self.cluster_index.update(cluster_id, ride.ride_id, eta_s)
        if self.flat_index is not None:
            self.flat_index.reindex_ride(ride, entry, etas)

    def _unindex_ride(self, ride_id: int) -> None:
        if self.flat_index is not None:
            self.flat_index.drop_ride(ride_id)
        entry = self.ride_entries.pop(ride_id, None)
        if entry is None:
            return
        for cluster_id in entry.reachable_ids():
            self.cluster_index.remove(cluster_id, ride_id)

    def reindex_ride(self, ride_id: int) -> None:
        """Rebuild a ride's index entry (after booking changed its route)."""
        with self.lock:
            ride = self.rides.get(ride_id)
            if ride is None:
                raise UnknownRideError(ride_id)
            self._unindex_ride(ride_id)
            # The entry-driven unindex removes only clusters the *old* entry
            # named; rows left behind by a corrupted entry (ghosts) would
            # otherwise survive every reindex — and the self-healing
            # auditor's reindex-based repair would never converge.
            self.cluster_index.purge_ride(ride_id)
            self._index_ride(ride)
            # Re-apply any progress the ride had already made: clusters
            # crossed before the booking stay obsolete.
            tracked = self.tracked_to.get(ride_id)
            if tracked is not None and tracked > ride.departure_s:
                apply_obsolescence(self, ride_id, tracked)

    def remove_ride(self, ride_id: int) -> None:
        """Withdraw a ride entirely (driver cancelled).

        Removal is atomic with respect to discoverability: the ride's index
        entry, every cluster potential-ride tuple (including strays a
        corrupted entry would not have named), and its tracking state all go
        in one call, so a cancelled ride can never surface in a later search.
        """
        with self.lock:
            if ride_id not in self.rides:
                raise UnknownRideError(ride_id)
            self._unindex_ride(ride_id)
            # Belt and braces: the entry-driven unindex trusts the ride's
            # entry to name its clusters; sweep the index for strays as well.
            self.cluster_index.purge_ride(ride_id)
            del self.rides[ride_id]
            self.tracked_to.pop(ride_id, None)

    # ------------------------------------------------------------------
    # O1: search
    # ------------------------------------------------------------------
    def make_request(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        window_start_s: float,
        window_end_s: float,
        walk_threshold_m: Optional[float] = None,
    ) -> RideRequest:
        """Convenience constructor applying the config's default threshold."""
        return RideRequest(
            request_id=next(self._request_ids),
            source=source,
            destination=destination,
            window_start_s=window_start_s,
            window_end_s=window_end_s,
            walk_threshold_m=(
                walk_threshold_m
                if walk_threshold_m is not None
                else self.region.config.default_walk_threshold_m
            ),
        )

    def search(
        self,
        request: RideRequest,
        k: Optional[int] = None,
        ranking=None,
        *,
        peers: Sequence["XAREngine"] = (),
    ) -> List[MatchOption]:
        """All feasible matches (or the best ``k``), least walking first.

        ``ranking`` overrides the ordering — e.g.
        :func:`repro.social.social_ranking` puts rides offered by the
        requester's friends first (Section VII's safety motivation).  The
        top-k cut is applied after re-ranking.

        ``peers`` are more engines over the same region, on ride-id lanes
        disjoint from this one's (the shards of one service, in slot order
        after this one): the search covers them all in one pass, under
        every engine's lock taken in that order, and returns what merging
        each engine's own search by the rank key would.  Each engine's
        span and match-quality series record the pass as if it had run its
        own search.  Not combinable with ``ranking``.
        """
        if peers:
            if ranking is not None:
                raise ValueError("a search over peers takes no ranking")
            return self._search_pass(request, k, peers)
        if self.strict_coverage:
            self.region.require_covered(request.source)
            self.region.require_covered(request.destination)
        span = self.tracer.span("search")
        try:
            with self.lock:
                if ranking is None:
                    matches = search_rides(self, request, k, span=span)
                    self._observe_quality(
                        request,
                        matches[0].detour_estimate_m if matches else None,
                    )
                    return matches
                matches = search_rides(self, request, None, span=span)
            with span.stage("rank_merge"):
                matches.sort(key=ranking)
                if k is not None:
                    matches = matches[:k]
            self._observe_quality(
                request, matches[0].detour_estimate_m if matches else None
            )
            return matches
        finally:
            span.finish()

    def _search_pass(
        self, request: RideRequest, k: Optional[int],
        peers: Sequence["XAREngine"],
    ) -> List[MatchOption]:
        """:meth:`search` over this engine and ``peers`` in one pass."""
        engines = [self, *peers]
        if any(engine.strict_coverage for engine in engines):
            self.region.require_covered(request.source)
            self.region.require_covered(request.destination)
        span = span_group([engine.tracer.span("search") for engine in engines])
        best: List[Optional[float]] = [None] * len(engines)
        held = 0
        try:
            for engine in engines:
                engine.lock.acquire()
                held += 1
            matches = search_rides(
                self, request, k, span=span, peers=peers, best=best
            )
        finally:
            for engine in engines[:held]:
                engine.lock.release()
            span.finish()
        direct = None
        for engine, detour in zip(engines, best):
            if detour is not None and direct is None:
                direct = request.straight_line_m()
            engine._observe_quality(request, detour, direct)
        return matches

    def _observe_quality(
        self, request: RideRequest, best_detour_m: Optional[float],
        direct_m: Optional[float] = None,
    ) -> None:
        """Record match quality: the best match's detour ratio (its detour
        estimate, None when the search came back empty; ``direct_m`` the
        request's straight-line length when already known), or an empty
        hit."""
        if self._c_search_empty is None:
            return
        if best_detour_m is None:
            self._c_search_empty.inc()
            return
        direct = request.straight_line_m() if direct_m is None else direct_m
        if direct > 0:
            self._h_detour_ratio.observe(best_detour_m / direct)

    def driver_of(self, ride_id: int) -> Optional[int]:
        """Driver user id of a ride, if it is live and has one."""
        ride = self.rides.get(ride_id)
        return ride.driver_id if ride is not None else None

    # ------------------------------------------------------------------
    # Booking + tracking
    # ------------------------------------------------------------------
    def book(self, request: RideRequest, match: MatchOption) -> BookingRecord:
        """Confirm a previously returned match — transactionally.

        The ride's full mutable state (route, via-points, seats, detour
        budget, index entry, cluster-index membership) is snapshotted before
        the splice; any :class:`~repro.exceptions.XARError` raised mid-way
        (a routing failure, a stale match, an invariant trip) restores the
        snapshot verbatim, records a :class:`BookingRollback`, and
        re-raises.  A failed booking is therefore a no-op on engine state.
        """
        from ..resilience.snapshot import restore_ride, snapshot_ride

        span = self.tracer.span("book")
        try:
            with self.lock:
                with span.stage("snapshot"):
                    snapshot = snapshot_ride(self, match.ride_id)
                if self.fault_hook is not None:
                    # Crash seam between snapshot and splice: nothing has
                    # been mutated yet, so a hook that kills the worker here
                    # leaves the engine exactly as before the call.
                    self.fault_hook("book:post-snapshot")
                try:
                    return book_ride(self, request, match, span=span)
                except XARError as exc:
                    if snapshot is not None:
                        restore_ride(self, snapshot)
                    self.rollbacks.append(
                        BookingRollback(
                            request_id=request.request_id,
                            ride_id=match.ride_id,
                            error=type(exc).__name__,
                            reason=str(exc),
                        )
                    )
                    raise
        finally:
            span.finish()

    def cancel_booking(self, request_id: int, ride_id: int) -> CancellationRecord:
        """Cancel one passenger's booking — transactionally.

        The inverse of :meth:`book`: the passenger's via-points are
        un-spliced (≤ 2 shortest paths — every inter-via segment is itself a
        shortest path, so only the junctions where the removed via-points
        sat need re-routing), the seat is released, and the ride's detour
        budget is restored exactly from its declared initial limit.  Any
        :class:`~repro.exceptions.XARError` mid-way restores the pre-call
        snapshot verbatim, so a failed cancellation is a no-op.
        """
        from ..resilience.snapshot import restore_ride, snapshot_ride

        span = self.tracer.span("cancel_booking")
        try:
            with self.lock:
                with span.stage("snapshot"):
                    snapshot = snapshot_ride(self, ride_id)
                try:
                    return cancel_booking_ride(self, request_id, ride_id, span=span)
                except XARError:
                    if snapshot is not None:
                        restore_ride(self, snapshot)
                    raise
        finally:
            span.finish()

    def track(self, ride_id: int, now_s: float) -> None:
        with self.lock:
            track_ride(self, ride_id, now_s)

    def track_all(self, now_s: float) -> int:
        span = self.tracer.span("track")
        try:
            with self.lock:
                with span.stage("sweep"):
                    return track_all(self, now_s)
        finally:
            span.finish()

    # ------------------------------------------------------------------
    # Durability support (WAL prediction + checkpoint restore)
    # ------------------------------------------------------------------
    def peek_next_ride_id(self) -> int:
        """Ride id the next successful ``create_ride`` will allocate.

        The write-ahead log records it *before* the create runs, so replay
        reconstructs the exact same id lane without the engine having to
        accept externally assigned ids.
        """
        return self._ride_ids.peek()

    def counter_state(self) -> Dict[str, int]:
        """Snapshot of the id allocators (checkpoint payload)."""
        return {
            "ride_next": self._ride_ids.next_value,
            "ride_step": self._ride_ids.step,
            "request_next": self._request_ids.next_value,
        }

    def restore_counter_state(self, state: Dict[str, int]) -> None:
        """Restore the id allocators from :meth:`counter_state`."""
        self._ride_ids.next_value = int(state["ride_next"])
        self._ride_ids.step = int(state["ride_step"])
        self._request_ids.next_value = int(state["request_next"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_active_rides(self) -> int:
        return len(self.rides)

    @property
    def n_bookings(self) -> int:
        return len(self.bookings)

    def index_stats(self) -> Dict[str, int]:
        """Cheap counters describing the in-memory index."""
        with self.lock:
            return {
                "rides": len(self.rides),
                "completed_rides": len(self.completed_rides),
                "cluster_entries": self.cluster_index.total_entries(),
                "pass_through_total": sum(
                    len(entry.visit_i) for entry in self.ride_entries.values()
                ),
                "reachable_total": sum(
                    len(entry.reach_i) for entry in self.ride_entries.values()
                ),
            }
