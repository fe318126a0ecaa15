"""The brute-force oracle engine: deliberately naive, obviously right.

:class:`OracleEngine` answers the same five operations as
:class:`~repro.core.engine.XAREngine` — create / search / book / cancel /
track — but takes none of the paper's shortcuts on the read path:

* **no spatial hash** — walk options are found by scanning *every* landmark
  of the region and keeping, per cluster, the nearest one (ties broken by
  landmark id, matching ``DiscretizedRegion._compute_walkable``);
* **no cluster index** — search scans *all* live rides, one by one, and
  checks feasibility directly against each ride's spatio-temporal entry;
* **exhaustive insertion-point enumeration** — :meth:`optimum` scores every
  (source option × destination option × supported segment pair) combination
  per ride and returns the minimum detour estimate, which is the reference
  the differential harness checks the ε-bound against.

The *write* path (create routing, the booking splice, tracking obsolescence)
reuses the exact deterministic primitives of the core engine
(:func:`~repro.roadnet.astar`, :func:`~repro.core.booking.book_ride`,
:mod:`repro.core.tracking`): those are exact computations, not
approximations, and sharing them is what makes "booked-ride schedules must
match verbatim across façades" a meaningful assertion rather than a test of
two independently-buggy route builders.  What the oracle *ground-truths* is
the approximate search path, which it re-derives from first principles.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.booking import (
    BookingRecord,
    BookingRollback,
    CancellationRecord,
    book_ride,
    cancel_booking_ride,
)
from ..core.reachability import build_ride_entry
from ..core.request import RideRequest
from ..core.ride import Ride
from ..core.search import MatchOption, _splice_estimate
from ..core.tracking import track_all
from ..discretization import DiscretizedRegion, WalkOption
from ..exceptions import RideError, UnknownRideError, XARError
from ..geo import GeoPoint
from ..index import RideIndexEntry
from ..roadnet import astar
from ..sim.adapters import XARAdapter


class _NullClusterIndex:
    """A cluster index that stores nothing.

    The oracle has no inverted cluster → rides index (that is the point),
    but the shared write-path helpers (transactional snapshots, tracking's
    completion sweep) call index methods on the engine they are given.  This
    stub absorbs those calls; ``eta`` always answers ``None`` so snapshots
    simply record no index footprint.
    """

    n_clusters = 0

    def add(self, cluster_id: int, ride_id: int, eta_s: float) -> None:
        pass

    def remove(self, cluster_id: int, ride_id: int) -> bool:
        return False

    def purge_ride(self, ride_id: int) -> int:
        return 0

    def eta(self, cluster_id: int, ride_id: int) -> Optional[float]:
        return None

    def total_entries(self) -> int:
        return 0


class OracleOptimum(NamedTuple):
    """Exhaustive per-ride optimum for one request."""

    ride_id: int
    #: Smallest splice detour estimate over every feasible combination.
    min_detour_m: float
    #: Smallest combined walk over every feasible combination.
    min_walk_m: float
    #: Feasible (source option, destination option, segment pair) combos.
    n_feasible: int


class OracleEngine:
    """Brute-force ground-truth engine (same operation surface as XAR)."""

    name = "Oracle"

    def __init__(
        self,
        region: DiscretizedRegion,
        detour_slack_m: Optional[float] = None,
        ride_id_start: int = 1,
        ride_id_step: int = 1,
    ):
        self.region = region
        self.rides: Dict[int, Ride] = {}
        self.completed_rides: Dict[int, Ride] = {}
        self.ride_entries: Dict[int, RideIndexEntry] = {}
        self.bookings: List[BookingRecord] = []
        self.rollbacks: List[BookingRollback] = []
        self.cancellations: List[CancellationRecord] = []
        self.tracked_to: Dict[int, float] = {}
        self.cluster_index = _NullClusterIndex()
        #: Same additive booking tolerance as the real engine (4ε default).
        self.detour_slack_m = (
            detour_slack_m
            if detour_slack_m is not None
            else 4.0 * region.config.epsilon_m
        )
        #: The shared booking splice consults these engine knobs.
        self.optimize_insertion = False
        self._ride_ids = itertools.count(ride_id_start, ride_id_step)
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Create / cancel (exact operations, shared primitives)
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
        config = self.region.config
        network = self.region.network
        source_node = network.snap(source)
        destination_node = network.snap(destination)
        if source_node == destination_node:
            raise RideError("ride source and destination snap to the same node")
        if route is None:
            _length, route = astar(network, source_node, destination_node)
        ride = Ride(
            ride_id=next(self._ride_ids),
            network=network,
            route=route,
            departure_s=departure_s,
            detour_limit_m=(
                detour_limit_m
                if detour_limit_m is not None
                else config.default_detour_m
            ),
            seats=seats if seats is not None else config.default_seats,
            source_point=source,
            destination_point=destination,
            driver_id=driver_id,
            shift_end_s=shift_end_s,
        )
        self.rides[ride.ride_id] = ride
        self.ride_entries[ride.ride_id] = build_ride_entry(self.region, ride)
        return ride

    def remove_ride(self, ride_id: int) -> None:
        if ride_id not in self.rides:
            raise UnknownRideError(ride_id)
        del self.rides[ride_id]
        self.ride_entries.pop(ride_id, None)
        self.tracked_to.pop(ride_id, None)

    def reindex_ride(self, ride_id: int) -> None:
        """Rebuild a ride's entry after booking changed its route."""
        ride = self.rides.get(ride_id)
        if ride is None:
            raise UnknownRideError(ride_id)
        if ride.retired:
            # A retired ride is invisible to matching; a route change (e.g.
            # a cancellation un-splice) must not resurrect its entry.
            self.ride_entries.pop(ride_id, None)
            return
        self.ride_entries[ride_id] = build_ride_entry(self.region, ride)
        tracked = self.tracked_to.get(ride_id)
        if tracked is not None and tracked > ride.departure_s:
            self._reapply_obsolescence(ride_id, tracked)

    def _reapply_obsolescence(self, ride_id: int, now_s: float) -> None:
        entry = self.ride_entries.get(ride_id)
        if entry is None:
            return
        step = entry.after(now_s)
        if step is not None:
            self.ride_entries[ride_id] = step.entry

    # ------------------------------------------------------------------
    # Walk options: exhaustive landmark scan (no spatial hash)
    # ------------------------------------------------------------------
    def walk_options(
        self, point: GeoPoint, max_walk_m: Optional[float] = None
    ) -> List[WalkOption]:
        """Walkable clusters of ``point``'s grid, by scanning every landmark.

        Semantics mirror
        :meth:`~repro.discretization.model.DiscretizedRegion.walkable_clusters`
        exactly — distances are measured from the grid-cell centroid, scaled
        by the walking circuity factor, capped at the system limit W and the
        request threshold, reduced to the nearest landmark per cluster (ties
        by landmark id) and sorted by (walk, cluster id) — but nothing is
        precomputed, bucketed or cached.
        """
        region = self.region
        config = region.config
        centroid = region.grid.centroid_of(region.grid.cell_of(point))
        limit = config.max_walk_m
        if max_walk_m is not None:
            limit = min(limit, max_walk_m)
        best: Dict[int, Tuple[float, int]] = {}
        for landmark in region.landmarks:
            walk = centroid.distance_to(landmark.position) * config.walk_circuity
            if walk > limit:
                continue
            cluster_id = region.cluster_of_landmark(landmark.landmark_id)
            current = best.get(cluster_id)
            if current is None or (walk, landmark.landmark_id) < current:
                best[cluster_id] = (walk, landmark.landmark_id)
        options = [
            WalkOption(cluster_id=cid, walk_m=walk, landmark_id=lid)
            for cid, (walk, lid) in best.items()
        ]
        options.sort(key=lambda option: (option.walk_m, option.cluster_id))
        return options

    # ------------------------------------------------------------------
    # Search: brute-force scan over all rides
    # ------------------------------------------------------------------
    def make_request(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        window_start_s: float,
        window_end_s: float,
        walk_threshold_m: Optional[float] = None,
    ) -> RideRequest:
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
        self, request: RideRequest, k: Optional[int] = None
    ) -> List[MatchOption]:
        """Scan every live ride; no index, no pruning, no early exit."""
        source_options = self.walk_options(request.source, request.walk_threshold_m)
        if not source_options:
            return []
        destination_options = self.walk_options(
            request.destination, request.walk_threshold_m
        )
        if not destination_options:
            return []
        matches: List[MatchOption] = []
        for ride_id in sorted(self.rides):
            match = self._match_ride(
                request, ride_id, source_options, destination_options
            )
            if match is not None:
                matches.append(match)
        matches.sort(key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id))
        if k is not None:
            return matches[:k]
        return matches

    def _match_ride(
        self,
        request: RideRequest,
        ride_id: int,
        source_options: List[WalkOption],
        destination_options: List[WalkOption],
    ) -> Optional[MatchOption]:
        """One ride's match under the engine's greedy option policy.

        The option policy (least-walk cluster at each end, earliest-pickup /
        latest-drop-off segments) is re-derived here from the ride's entry
        alone; the feasibility gates mirror the paper's Section VII checks.
        """
        ride = self.rides.get(ride_id)
        entry = self.ride_entries.get(ride_id)
        if ride is None or entry is None:
            return None
        reachable = entry.reachable
        best_src: Optional[Tuple[WalkOption, float]] = None
        for option in source_options:
            info = reachable.get(option.cluster_id)
            if info is None:
                continue
            if not (request.window_start_s <= info.eta_s <= request.window_end_s):
                continue
            if best_src is None or option.walk_m < best_src[0].walk_m:
                best_src = (option, info.eta_s)
        if best_src is None:
            return None
        best_dst: Optional[Tuple[WalkOption, float]] = None
        for option in destination_options:
            info = reachable.get(option.cluster_id)
            if info is None:
                continue
            if info.eta_s < request.window_start_s:
                continue
            if best_dst is None or option.walk_m < best_dst[0].walk_m:
                best_dst = (option, info.eta_s)
        if best_dst is None:
            return None

        (option_src, eta_src), (option_dst, eta_dst) = best_src, best_dst
        if ride.seats_available < 1:
            return None
        if option_src.walk_m + option_dst.walk_m > request.walk_threshold_m:
            return None
        if eta_src >= eta_dst:
            return None
        if option_src.cluster_id == option_dst.cluster_id:
            return None
        info_src = reachable.get(option_src.cluster_id)
        info_dst = reachable.get(option_dst.cluster_id)
        if info_src is None or info_dst is None:
            return None
        detour = self._pair_detour(
            entry,
            option_src,
            option_dst,
            coarse=info_src.detour_estimate_m + info_dst.detour_estimate_m,
        )
        if detour is None or detour > ride.detour_limit_m:
            return None
        return MatchOption(
            ride_id=ride_id,
            request_id=request.request_id,
            pickup_cluster=option_src.cluster_id,
            pickup_landmark=option_src.landmark_id,
            walk_source_m=option_src.walk_m,
            dropoff_cluster=option_dst.cluster_id,
            dropoff_landmark=option_dst.landmark_id,
            walk_destination_m=option_dst.walk_m,
            eta_pickup_s=eta_src,
            eta_dropoff_s=eta_dst,
            detour_estimate_m=detour,
        )

    def _pair_detour(
        self,
        entry: RideIndexEntry,
        option_src: WalkOption,
        option_dst: WalkOption,
        coarse: float,
    ) -> Optional[float]:
        """Splice detour estimate for one (pickup, drop-off) option pair,
        using the engine's greedy segment choice.  ``None`` == infeasible."""
        segment_pickup = entry.segment_for(option_src.cluster_id, earliest=True)
        segment_dropoff = entry.segment_for(option_dst.cluster_id, earliest=False)
        if segment_pickup is None or segment_dropoff is None:
            return None
        if segment_dropoff < segment_pickup:
            segment_dropoff = entry.segment_for(
                option_dst.cluster_id, earliest=False, at_least=segment_pickup
            )
            if segment_dropoff is None:
                return None
        detour = _splice_estimate(
            self.region,
            entry,
            segment_pickup,
            segment_dropoff,
            option_src.landmark_id,
            option_dst.landmark_id,
        )
        if detour is None:
            detour = coarse
        return detour

    # ------------------------------------------------------------------
    # Exhaustive optimum (the ε-bound reference)
    # ------------------------------------------------------------------
    def optimum(self, request: RideRequest) -> Dict[int, OracleOptimum]:
        """Exhaustive insertion-point enumeration, per live ride.

        For every ride, every (source option × destination option) pair
        passing the request's feasibility gates is scored with every
        supported (pickup segment ≤ drop-off segment) splice; the minimum
        detour estimate per ride is the reference value the differential
        harness holds every façade's search answers against:

            match.detour_estimate_m  ≤  optimum.min_detour_m + ε-bound.
        """
        source_options = self.walk_options(request.source, request.walk_threshold_m)
        destination_options = self.walk_options(
            request.destination, request.walk_threshold_m
        )
        out: Dict[int, OracleOptimum] = {}
        if not source_options or not destination_options:
            return out
        for ride_id in sorted(self.rides):
            ride = self.rides[ride_id]
            entry = self.ride_entries.get(ride_id)
            if entry is None or ride.seats_available < 1:
                continue
            reachable = entry.reachable
            best_detour = float("inf")
            best_walk = float("inf")
            feasible = 0
            for option_src in source_options:
                info_src = reachable.get(option_src.cluster_id)
                if info_src is None:
                    continue
                if not (
                    request.window_start_s
                    <= info_src.eta_s
                    <= request.window_end_s
                ):
                    continue
                for option_dst in destination_options:
                    info_dst = reachable.get(option_dst.cluster_id)
                    if info_dst is None:
                        continue
                    if info_dst.eta_s < request.window_start_s:
                        continue
                    if info_src.eta_s >= info_dst.eta_s:
                        continue
                    if option_src.cluster_id == option_dst.cluster_id:
                        continue
                    walk = option_src.walk_m + option_dst.walk_m
                    if walk > request.walk_threshold_m:
                        continue
                    detour = self._best_splice(
                        entry,
                        option_src,
                        option_dst,
                        coarse=info_src.detour_estimate_m
                        + info_dst.detour_estimate_m,
                    )
                    if detour is None or detour > ride.detour_limit_m:
                        continue
                    feasible += 1
                    if detour < best_detour:
                        best_detour = detour
                    if walk < best_walk:
                        best_walk = walk
            if feasible:
                out[ride_id] = OracleOptimum(
                    ride_id=ride_id,
                    min_detour_m=best_detour,
                    min_walk_m=best_walk,
                    n_feasible=feasible,
                )
        return out

    def _best_splice(
        self,
        entry: RideIndexEntry,
        option_src: WalkOption,
        option_dst: WalkOption,
        coarse: float,
    ) -> Optional[float]:
        """Minimum splice estimate over *every* ordered segment pair."""
        info_src = entry.reachable.get(option_src.cluster_id)
        info_dst = entry.reachable.get(option_dst.cluster_id)
        if info_src is None or info_dst is None:
            return None
        pickup_segments = entry.support_segments(option_src.cluster_id)
        dropoff_segments = entry.support_segments(option_dst.cluster_id)
        best: Optional[float] = None
        for sp in pickup_segments:
            for sd in dropoff_segments:
                if sd < sp:
                    continue
                estimate = _splice_estimate(
                    self.region,
                    entry,
                    sp,
                    sd,
                    option_src.landmark_id,
                    option_dst.landmark_id,
                )
                if estimate is None:
                    estimate = coarse
                if best is None or estimate < best:
                    best = estimate
        return best

    # ------------------------------------------------------------------
    # Book / track (shared exact write path, transactional)
    # ------------------------------------------------------------------
    def book(self, request: RideRequest, match: MatchOption) -> BookingRecord:
        """Transactional booking, identical rollback semantics to XAR."""
        from ..resilience.snapshot import restore_ride, snapshot_ride

        snapshot = snapshot_ride(self, match.ride_id)
        try:
            return book_ride(self, request, match)
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

    def cancel_booking(self, request_id: int, ride_id: int) -> CancellationRecord:
        """Transactional booking cancellation, identical to XAR's."""
        from ..resilience.snapshot import restore_ride, snapshot_ride

        snapshot = snapshot_ride(self, ride_id)
        try:
            return cancel_booking_ride(self, request_id, ride_id)
        except XARError:
            if snapshot is not None:
                restore_ride(self, snapshot)
            raise

    def track_all(self, now_s: float) -> int:
        return track_all(self, now_s)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_active_rides(self) -> int:
        return len(self.rides)

    def index_stats(self) -> Dict[str, int]:
        return {
            "rides": len(self.rides),
            "completed_rides": len(self.completed_rides),
            "cluster_entries": 0,
            "pass_through_total": sum(
                len(entry.visit_i) for entry in self.ride_entries.values()
            ),
            "reachable_total": sum(
                len(entry.reach_i) for entry in self.ride_entries.values()
            ),
        }


class OracleAdapter(XARAdapter):
    """EngineAdapter façade over :class:`OracleEngine`, which answers every
    method :class:`~repro.sim.adapters.XARAdapter` calls on its engine."""

    name = "Oracle"
