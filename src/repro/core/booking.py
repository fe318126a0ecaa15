"""Ride booking (paper Section VIII-B).

Booking is the only runtime operation allowed to compute shortest paths, and
it is bounded: at most 4 computations per booking (3 when pickup and drop lie
on the same segment), run "in the back-end after the booking is confirmed".
A path that starts at a landmark node (every pickup and drop-off is one) is
read from the region's landmark shortest-path trees rather than searched;
it is the same path, and it still counts toward the bound.

Steps (mirroring the paper):

1. locate the segments on which the pickup (src) and drop-off (dest) lie,
   using the supporting pass-through clusters recorded in the ride index;
2. same segment s: compute SP(s₁→src), SP(src→dest), SP(dest→s₂) and splice;
3. different segments: compute SP(s₁→src), SP(src→s₂) and SP(d₁→dest),
   SP(dest→d₂) and splice both segments;
4. charge the ride's detour budget with the *actual* detour (new route length
   − old route length), decrement seats, install the new via-points, and
   re-index the ride (pass-through / reachable clusters may all change).

The difference between the actual detour and the cluster-level estimate made
at search time is the *approximation error* the paper bounds by 4ε and
measures empirically in Figure 3a; we record it on every booking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..exceptions import BookingError
from ..index import PassThrough
from ..obs.trace import NULL_SPAN
from ..roadnet import dijkstra_path
from .request import RideRequest
from .ride import PassengerRecord, Ride, ViaPoint
from .search import MatchOption, _splice_estimate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import XAREngine


@dataclass(frozen=True)
class BookingRecord:
    """The persisted outcome of a successful booking."""

    request_id: int
    ride_id: int
    pickup_landmark: int
    dropoff_landmark: int
    walk_source_m: float
    walk_destination_m: float
    eta_pickup_s: float
    eta_dropoff_s: float
    #: Cluster-level estimate promised at search time.
    detour_estimate_m: float
    #: Actual detour measured after the shortest-path splice.
    detour_actual_m: float
    #: Shortest-path computations performed (<= 4, Section VIII-B).
    shortest_paths_computed: int

    @property
    def approximation_error_m(self) -> float:
        """|actual − estimated| detour: the Fig. 3a quantity."""
        return abs(self.detour_actual_m - self.detour_estimate_m)


@dataclass(frozen=True)
class BookingRollback:
    """The persisted outcome of a booking that failed and was rolled back.

    Transactional booking (``XAREngine.book``) snapshots the ride before the
    splice and restores it on any :class:`~repro.exceptions.XARError`, so a
    failed booking is a no-op on engine state; this record is the audit
    trail of that rollback.
    """

    request_id: int
    ride_id: int
    #: Exception class name that aborted the booking (e.g. ``NoPathError``).
    error: str
    reason: str


@dataclass(frozen=True)
class CancellationRecord:
    """The persisted outcome of a successful booking cancellation."""

    request_id: int
    ride_id: int
    #: Route metres the un-splice removed (old length − new length).
    route_delta_m: float
    #: Detour budget returned to the ride by the cancellation.
    detour_restored_m: float
    #: Shortest-path computations performed (<= 2: one per junction where
    #: the cancelled passenger's via-points sat).
    shortest_paths_computed: int


def book_ride(
    engine: "XAREngine",
    request: RideRequest,
    match: MatchOption,
    span=NULL_SPAN,
) -> BookingRecord:
    """Confirm a match: splice the route, charge budgets, re-index.

    ``span`` times the booking's two expensive stages: **splice** (segment
    resolution, the ≤ 4 shortest paths and the route rebuild with budget
    checks) and **reindex** (rebuilding the ride's cluster-index entry);
    the **snapshot** stage is timed by the caller, ``XAREngine.book``.
    """
    ride = engine.rides.get(match.ride_id)
    if ride is not None and ride.retired:
        raise BookingError(
            f"ride {match.ride_id} retired at shift end and takes no bookings"
        )
    entry = engine.ride_entries.get(match.ride_id)
    if ride is None or entry is None:
        raise BookingError(f"ride {match.ride_id} is no longer in the system")
    if ride.seats_available < 1:
        raise BookingError(f"ride {match.ride_id} has no free seats")

    region = engine.region
    pickup_node = region.landmarks[match.pickup_landmark].node
    dropoff_node = region.landmarks[match.dropoff_landmark].node
    if pickup_node == dropoff_node:
        raise BookingError("pickup and drop-off collapse to the same road node")

    with span.stage("splice"):
        if engine.optimize_insertion:
            pair = _best_segment_pair(engine.region, entry, match)
            if pair is None:
                raise BookingError(
                    "match is stale: its clusters are no longer served by the ride"
                )
            segment_pickup, segment_dropoff = pair
        else:
            segment_pickup = entry.segment_for(match.pickup_cluster, earliest=True)
            segment_dropoff = entry.segment_for(match.dropoff_cluster, earliest=False)
            if segment_pickup is None or segment_dropoff is None:
                raise BookingError(
                    "match is stale: its clusters are no longer served by the ride"
                )
            if segment_dropoff < segment_pickup:
                # Keep the pickup-before-drop-off order; try the drop-off's
                # segment range again constrained to >= pickup's segment.
                segment_dropoff = entry.segment_for(
                    match.dropoff_cluster, earliest=False, at_least=segment_pickup
                )
                if segment_dropoff is None:
                    raise BookingError(
                        "ride cannot drop off after picking up within its route"
                    )

        old_length = ride.length_m
        sp_count = 0
        geometry = ride.geometry  # put back by reference on a refusal
        route = ride.route
        vias = list(ride.via_points)

        # Rebuild the route segment by segment: unaffected segments are copied
        # verbatim (shortest-path free); the pickup/drop-off segments are spliced
        # through the new via nodes.  Same-segment bookings cost 3 shortest paths,
        # distinct segments cost 4 — the paper's Section VIII-B bound.
        new_route: List[int] = [route[0]]
        new_vias: List[ViaPoint] = [ViaPoint(node=route[0], route_index=0, label=vias[0].label, request_id=vias[0].request_id)]
        for seg in range(ride.n_segments):
            start, end = ride.segment_bounds(seg)
            inserts: List[Tuple[int, str]] = []
            if seg == segment_pickup:
                inserts.append((pickup_node, "pickup"))
            if seg == segment_dropoff:
                inserts.append((dropoff_node, "dropoff"))
            if inserts:
                waypoints = [route[start]] + [node for node, _label in inserts] + [route[end]]
                pieces: List[List[int]] = []
                for a, b in zip(waypoints, waypoints[1:]):
                    sp_count += a != b
                    pieces.append(_splice_path(engine, a, b))
                sub_route = pieces[0]
                insert_positions: List[Tuple[int, str]] = []
                for piece, (node, label) in zip(pieces[1:], inserts):
                    insert_positions.append((len(new_route) - 1 + len(sub_route) - 1, label))
                    sub_route = _join(sub_route, piece)
            else:
                sub_route = route[start:end + 1]
                insert_positions = []
            new_route.extend(sub_route[1:])
            for position, label in insert_positions:
                new_vias.append(
                    ViaPoint(
                        node=new_route[position],
                        route_index=position,
                        label=label,
                        request_id=request.request_id,
                    )
                )
            end_via = vias[seg + 1]
            new_vias.append(
                ViaPoint(
                    node=new_route[-1],
                    route_index=len(new_route) - 1,
                    label=end_via.label,
                    request_id=end_via.request_id,
                )
            )

        if sp_count > 4:
            raise BookingError(
                f"internal invariant broken: {sp_count} shortest paths "
                "(paper bounds booking at 4)"
            )

        ride.replace_route(new_route, new_vias)
        actual_detour = max(0.0, ride.length_m - old_length)

        slack = engine.detour_slack_m
        if actual_detour > ride.detour_limit_m + slack:
            # The additive 4ε guarantee allows exceeding the limit by at most the
            # slack; beyond that the match was invalid — roll back.
            ride.replace_route(geometry, vias)
            raise BookingError(
                f"actual detour {actual_detour:.0f} m exceeds remaining budget "
                f"{ride.detour_limit_m:.0f} m beyond the {slack:.0f} m tolerance"
            )

        if ride.seats_available < 1:
            # Look-to-book race: seats hit zero between the entry check and the
            # splice (e.g. the same ride booked via another match of this batch).
            # Never silently over-book — restore the route and refuse.
            ride.replace_route(geometry, vias)
            raise BookingError(
                f"ride {ride.ride_id} ran out of seats while booking was in flight"
            )

        # Per-passenger budgets: the splice may stretch the onboard span of
        # already-booked passengers; none may exceed their declared budget.
        for record_existing in ride.passengers.values():
            consumed = ride.passenger_consumed_m(record_existing.request_id)
            if (
                record_existing.max_detour_m is not None
                and consumed > record_existing.max_detour_m
            ):
                ride.replace_route(geometry, vias)
                raise BookingError(
                    f"splice would stretch passenger {record_existing.request_id} "
                    f"by {consumed:.0f} m, over their {record_existing.max_detour_m:.0f} m "
                    "personal detour budget"
                )

        ride.consume_seat()
        ride.consume_detour(actual_detour)
        ride.passengers[request.request_id] = PassengerRecord(
            request_id=request.request_id,
            max_detour_m=getattr(request, "max_detour_m", None),
            baseline_onboard_m=ride.onboard_span_m(request.request_id),
        )
    with span.stage("reindex"):
        engine.reindex_ride(ride.ride_id)

    record = BookingRecord(
        request_id=request.request_id,
        ride_id=ride.ride_id,
        pickup_landmark=match.pickup_landmark,
        dropoff_landmark=match.dropoff_landmark,
        walk_source_m=match.walk_source_m,
        walk_destination_m=match.walk_destination_m,
        eta_pickup_s=match.eta_pickup_s,
        eta_dropoff_s=match.eta_dropoff_s,
        detour_estimate_m=match.detour_estimate_m,
        detour_actual_m=actual_detour,
        shortest_paths_computed=sp_count,
    )
    engine.bookings.append(record)
    return record


def cancel_booking_ride(
    engine: "XAREngine",
    request_id: int,
    ride_id: int,
    span=NULL_SPAN,
) -> CancellationRecord:
    """Cancel one passenger's booking: un-splice their via-points, restore
    the seat and the detour budget exactly, and re-index the ride.

    Like booking, the operation is shortest-path bounded: every segment
    between consecutive via-points is itself a shortest path (the initial
    route is one, spliced pieces are, and verbatim-copied segments are
    subpaths of shortest paths), so removing a passenger's two via-points
    needs at most **2** new shortest-path computations — one per junction
    where a removed via-point sat (1 when pickup and drop-off were adjacent
    via-points, 0 when both collapse onto surviving via nodes).
    """
    ride = engine.rides.get(ride_id)
    if ride is None:
        raise BookingError(f"ride {ride_id} is no longer in the system")
    booked = sum(
        1 for b in engine.bookings
        if b.request_id == request_id and b.ride_id == ride_id
    )
    cancelled = sum(
        1 for c in engine.cancellations
        if c.request_id == request_id and c.ride_id == ride_id
    )
    if booked <= cancelled:
        raise BookingError(
            f"request {request_id} holds no live booking on ride {ride_id}"
        )

    with span.stage("unsplice"):
        old_route = ride.route
        old_vias = list(ride.via_points)
        old_length = ride.length_m
        old_budget = ride.detour_limit_m

        kept: List[Tuple[int, ViaPoint]] = []
        removed = 0
        for position, via in enumerate(old_vias):
            if via.request_id == request_id and via.label in ("pickup", "dropoff"):
                removed += 1
            else:
                kept.append((position, via))
        if removed != 2:
            raise BookingError(
                f"ride {ride_id} carries {removed} via-points for request "
                f"{request_id}, expected a pickup/dropoff pair"
            )

        sp_count = 0
        first = kept[0][1]
        new_route: List[int] = [first.node]
        new_vias: List[ViaPoint] = [
            ViaPoint(node=first.node, route_index=0, label=first.label,
                     request_id=first.request_id)
        ]
        for (pos_a, via_a), (pos_b, via_b) in zip(kept, kept[1:]):
            if pos_b == pos_a + 1:
                # No via-point was removed between these two: the old segment
                # survives verbatim (shortest-path free).
                piece = old_route[via_a.route_index:via_b.route_index + 1]
            else:
                # A removed via-point sat here; re-route the junction.  The
                # old adjacent segments were shortest paths, so one SP between
                # the surviving endpoints restores the invariant.
                sp_count += via_a.node != via_b.node
                piece = _splice_path(engine, via_a.node, via_b.node)
            new_route.extend(piece[1:])
            new_vias.append(
                ViaPoint(node=via_b.node, route_index=len(new_route) - 1,
                         label=via_b.label, request_id=via_b.request_id)
            )

        if sp_count > 2:
            raise BookingError(
                f"internal invariant broken: {sp_count} shortest paths "
                "(cancellation is bounded at 2)"
            )

        ride.replace_route(new_route, new_vias)
        ride.release_seat()
        # Exact budget restore: recompute the remaining budget from the
        # declared initial limit and the detour still materialised in the
        # route, instead of adding back a delta (consume_detour clamps at
        # zero, so deltas can lose information).
        ride.detour_limit_m = max(
            0.0,
            ride.detour_limit_initial_m
            - max(0.0, ride.length_m - ride.base_length_m),
        )
        ride.passengers.pop(request_id, None)
        ride.progressed_m = min(ride.progressed_m, ride.length_m)
    with span.stage("reindex"):
        engine.reindex_ride(ride.ride_id)

    record = CancellationRecord(
        request_id=request_id,
        ride_id=ride_id,
        route_delta_m=max(0.0, old_length - ride.length_m),
        detour_restored_m=max(0.0, ride.detour_limit_m - old_budget),
        shortest_paths_computed=sp_count,
    )
    engine.cancellations.append(record)
    return record


def _splice_path(engine: "XAREngine", a: int, b: int) -> List[int]:
    """The shortest path ``a .. b`` a splice inserts.

    A path that starts at a landmark node is read from the region's
    shortest-path trees, and only the rest is searched with
    ``dijkstra_path`` — looked up here at call time, so a wrapper installed
    on this module sees every search.  Callers count ``a != b`` as one
    shortest-path computation either way.
    """
    if a == b:
        return [a]
    region = engine.region
    path = region.path_trees().path(a, b)
    if path is None:
        path = dijkstra_path(region.network, a, b)[1]
    return path


def _best_segment_pair(
    region, entry, match: MatchOption
) -> Optional[Tuple[int, int]]:
    """Insertion optimization: among all supported (pickup, drop-off) segment
    pairs, pick the one with the smallest landmark-level splice estimate.

    Scoring reads the precomputed landmark matrix, so the optimization adds
    no shortest-path computations — the booking still performs at most 4.
    This is the scheduling-flavoured extension the paper marks complementary
    (Huang et al.); enable with ``XAREngine(optimize_insertion=True)``.
    """
    info_pickup = entry.reachable.get(match.pickup_cluster)
    info_dropoff = entry.reachable.get(match.dropoff_cluster)
    if info_pickup is None or info_dropoff is None:
        return None
    pickup_segments = entry.support_segments(match.pickup_cluster)
    dropoff_segments = entry.support_segments(match.dropoff_cluster)
    best: Optional[Tuple[float, int, int]] = None
    for sp in pickup_segments:
        for sd in dropoff_segments:
            if sd < sp:
                continue
            estimate = _splice_estimate(
                region, entry, sp, sd, match.pickup_landmark, match.dropoff_landmark
            )
            if estimate is None:
                estimate = (
                    info_pickup.detour_estimate_m + info_dropoff.detour_estimate_m
                )
            if best is None or estimate < best[0]:
                best = (estimate, sp, sd)
    if best is None:
        return None
    return (best[1], best[2])


def _join(a: List[int], b: List[int]) -> List[int]:
    """Concatenate node paths sharing an endpoint."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    if a[-1] != b[0]:
        raise BookingError(f"cannot join paths: {a[-1]} != {b[0]}")
    return a + b[1:]
