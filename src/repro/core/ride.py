"""Ride model: route, via-points, segments, detour budget (paper Section VI).

Ride entities mirror the paper's list exactly: source/destination locations,
departure time, seats, the route (shortest path unless overridden),
*via-points* (pickup/drop-off points including the endpoints — different from
road waypoints), *segments* between consecutive via-points, and the detour
limit remaining.

The route is a node path on the road network.  Cumulative distance and time
offsets are precomputed so that the ETA at any route index is O(1); those
ETAs feed the cluster index.  The three are held as read-only numpy arrays
(:class:`RouteGeometry`: int64 nodes, float64 offsets and times), not as
Python lists: ≈ 0.8 kB a ride on the benchmark city, where the lists took
≈ 2.3 kB, and the reachability build reads them with array operations.
Being immutable, one ride's geometry can be shared by reference — a
snapshot, a rolled-back splice and a checkpoint decode put it back with
:meth:`Ride.replace_route` instead of recomputing it.  The accessors hand
out Python ints and floats, so nothing downstream sees a numpy scalar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import RideError
from ..geo import GeoPoint
from ..roadnet import RoadNetwork


class RideStatus(enum.Enum):
    PLANNED = "planned"
    ACTIVE = "active"
    COMPLETED = "completed"


@dataclass(frozen=True)
class ViaPoint:
    """A location the ride must pass through (Section VI item 6).

    ``route_index`` is the index of the via-point's node in the ride's route
    node list; via-points are kept sorted by it.
    """

    node: int
    route_index: int
    label: str  # 'source' | 'destination' | 'pickup' | 'dropoff'
    request_id: Optional[int] = None


@dataclass(frozen=True)
class PassengerRecord:
    """Per-passenger pooling state (high-capacity pooling support).

    ``baseline_onboard_m`` is the onboard span (pickup via → dropoff via
    route distance) the passenger was promised at their own booking commit;
    later splices may stretch it by at most ``max_detour_m`` (``None`` means
    unbounded — the ride-level budget is then the only constraint).
    """

    request_id: int
    max_detour_m: Optional[float]
    baseline_onboard_m: float


class RouteGeometry(NamedTuple):
    """A route and its cumulative offsets (metres) and travel times
    (seconds) from the first node, as read-only arrays of one length."""

    route: np.ndarray
    offsets_m: np.ndarray
    times_s: np.ndarray


class Ride:
    """A mutable ride offer with its live spatio-temporal state."""

    def __init__(
        self,
        ride_id: int,
        network: RoadNetwork,
        route: Sequence[int],
        departure_s: float,
        detour_limit_m: float,
        seats: int,
        source_point: Optional[GeoPoint] = None,
        destination_point: Optional[GeoPoint] = None,
        driver_id: Optional[int] = None,
        shift_end_s: Optional[float] = None,
    ):
        if len(route) < 2:
            raise RideError(f"ride {ride_id}: route must have >= 2 nodes")
        if detour_limit_m < 0:
            raise RideError(f"ride {ride_id}: negative detour limit")
        if seats < 1:
            raise RideError(f"ride {ride_id}: needs at least one seat")
        self.ride_id = ride_id
        self.network = network
        self.departure_s = departure_s
        self.detour_limit_m = detour_limit_m
        #: Detour budget as declared at creation; with ``base_length_m`` this
        #: recovers the exact remaining budget after a booking is cancelled.
        self.detour_limit_initial_m = detour_limit_m
        self.seats_total = seats
        self.seats_available = seats
        self.status = RideStatus.PLANNED
        self.source_point = source_point or network.position(route[0])
        self.destination_point = destination_point or network.position(route[-1])
        #: User id of the offering driver (social-ranking support); optional.
        self.driver_id = driver_id
        #: Driver shift end (fleet dynamics): once tracking passes this time
        #: the ride stops accepting bookings and leaves the search index, but
        #: keeps driving until arrival so booked passengers are never
        #: stranded.  ``None`` — no shift limit.
        self.shift_end_s = shift_end_s
        #: True once the shift-end retirement has fired.
        self.retired = False
        #: Booked passengers keyed by request id (per-passenger budgets).
        self.passengers: Dict[int, PassengerRecord] = {}
        #: Route offset (metres) the ride has verifiably progressed past;
        #: maintained by tracking.
        self.progressed_m = 0.0

        self._set_route(route)
        self.via_points: List[ViaPoint] = [
            ViaPoint(node=self._route.item(0), route_index=0, label="source"),
            ViaPoint(
                node=self._route.item(-1),
                route_index=len(self._route) - 1,
                label="destination",
            ),
        ]
        #: Length of the original (un-detoured) route, fixed at creation.
        self.base_length_m = self.length_m

    # ------------------------------------------------------------------
    # Route geometry
    # ------------------------------------------------------------------
    def _set_route(self, route: Sequence[int]) -> None:
        """Compute the route's geometry: the same left-to-right float sums
        as ever, so every offset and ETA is bit-identical to them."""
        hops = self.network.frozen().hops
        offset = elapsed = 0.0
        offsets = [offset]
        times = [elapsed]
        for a, b in zip(route, route[1:]):
            hop = hops.get((a, b))
            if hop is None:
                raise RideError(
                    f"ride {self.ride_id}: route hop {a}->{b} is not a road edge"
                )
            offset += hop[0]
            elapsed += hop[1]
            offsets.append(offset)
            times.append(elapsed)
        self._install(RouteGeometry(
            np.array(route, dtype=np.int64),
            np.array(offsets, dtype=np.float64),
            np.array(times, dtype=np.float64),
        ))

    def _install(self, geometry: RouteGeometry) -> None:
        for column in geometry:
            column.setflags(write=False)
        self._route, self._offsets_m, self._times_s = geometry

    @property
    def geometry(self) -> RouteGeometry:
        """The route's arrays — read-only, so safe to keep by reference."""
        return RouteGeometry(self._route, self._offsets_m, self._times_s)

    @property
    def route(self) -> List[int]:
        return self._route.tolist()

    @property
    def length_m(self) -> float:
        return self._offsets_m.item(-1)

    @property
    def duration_s(self) -> float:
        return self._times_s.item(-1)

    @property
    def arrival_s(self) -> float:
        return self.departure_s + self.duration_s

    def offset_at_index(self, route_index: int) -> float:
        return self._offsets_m.item(route_index)

    def eta_at_index(self, route_index: int) -> float:
        """Estimated time of arrival at a route node (departure + cum. time)."""
        return self.departure_s + self._times_s.item(route_index)

    def index_at_time(self, now_s: float) -> int:
        """Last route index reached by time ``now_s`` (0 before departure)."""
        elapsed = now_s - self.departure_s
        if elapsed <= 0:
            return 0
        index = int(self._times_s.searchsorted(elapsed, "right")) - 1
        return min(index, len(self._route) - 1)

    def position_at_time(self, now_s: float) -> GeoPoint:
        """Node-resolution position of the ride at ``now_s``."""
        return self.network.position(self._route.item(self.index_at_time(now_s)))

    # ------------------------------------------------------------------
    # Via-points and segments
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self.via_points) - 1

    def segment_bounds(self, segment_index: int) -> Tuple[int, int]:
        """Route-index span [start, end] of a segment (Section VI item 7)."""
        if not (0 <= segment_index < self.n_segments):
            raise RideError(
                f"ride {self.ride_id}: segment {segment_index} out of range "
                f"(has {self.n_segments})"
            )
        return (
            self.via_points[segment_index].route_index,
            self.via_points[segment_index + 1].route_index,
        )

    def segment_of_route_index(self, route_index: int) -> int:
        """Segment containing a route index (last segment for the endpoint)."""
        for segment_index in range(self.n_segments):
            start, end = self.segment_bounds(segment_index)
            if start <= route_index < end:
                return segment_index
        return self.n_segments - 1

    def replace_route(
        self,
        route: Union[Sequence[int], RouteGeometry],
        via_points: List[ViaPoint],
    ) -> None:
        """Install a post-booking route + via-point set (booking back-end).

        ``route`` is a node path, or a :class:`RouteGeometry` taken from a
        ride's :attr:`geometry` — installed by reference, not recomputed.
        Validates that via-points are sorted, anchored at the route ends, and
        reference the claimed nodes.
        """
        if isinstance(route, RouteGeometry):
            self._install(route)
            route = route.route
        else:
            self._set_route(route)
        if not via_points or via_points[0].route_index != 0:
            raise RideError(f"ride {self.ride_id}: first via-point must be index 0")
        if via_points[-1].route_index != len(route) - 1:
            raise RideError(f"ride {self.ride_id}: last via-point must be route end")
        previous = 0
        for via in via_points:
            # Non-decreasing: two via-points may share a node (pickup at an
            # existing stop), never move backwards.
            if via.route_index < previous:
                raise RideError(
                    f"ride {self.ride_id}: via-points out of order at {via}"
                )
            if self._route.item(via.route_index) != via.node:
                raise RideError(
                    f"ride {self.ride_id}: via-point node mismatch at {via}"
                )
            previous = via.route_index
        self.via_points = list(via_points)

    # ------------------------------------------------------------------
    # Per-passenger accounting
    # ------------------------------------------------------------------
    def passenger_vias(self, request_id: int) -> Tuple[ViaPoint, ViaPoint]:
        """The (pickup, dropoff) via-points of a booked passenger."""
        pickup = dropoff = None
        for via in self.via_points:
            if via.request_id != request_id:
                continue
            if via.label == "pickup":
                pickup = via
            elif via.label == "dropoff":
                dropoff = via
        if pickup is None or dropoff is None:
            raise RideError(
                f"ride {self.ride_id}: request {request_id} has no "
                f"pickup/dropoff via-points"
            )
        return pickup, dropoff

    def onboard_span_m(self, request_id: int) -> float:
        """Route distance a booked passenger spends onboard (pickup→dropoff)."""
        pickup, dropoff = self.passenger_vias(request_id)
        offsets = self._offsets_m
        return offsets.item(dropoff.route_index) - offsets.item(pickup.route_index)

    def passenger_consumed_m(self, request_id: int) -> float:
        """Detour consumed against a passenger's own budget so far."""
        record = self.passengers.get(request_id)
        if record is None:
            raise RideError(
                f"ride {self.ride_id}: request {request_id} is not a passenger"
            )
        return max(0.0, self.onboard_span_m(request_id) - record.baseline_onboard_m)

    # ------------------------------------------------------------------
    # Seats / detour accounting
    # ------------------------------------------------------------------
    def consume_seat(self) -> None:
        if self.seats_available <= 0:
            raise RideError(f"ride {self.ride_id}: no seats available")
        self.seats_available -= 1

    def release_seat(self) -> None:
        if self.seats_available >= self.seats_total:
            raise RideError(f"ride {self.ride_id}: all seats already free")
        self.seats_available += 1

    def consume_detour(self, metres: float) -> None:
        if metres < 0:
            raise RideError(f"ride {self.ride_id}: negative detour {metres}")
        self.detour_limit_m = max(0.0, self.detour_limit_m - metres)

    def __repr__(self) -> str:
        return (
            f"Ride(id={self.ride_id}, depart={self.departure_s:.0f}s, "
            f"len={self.length_m:.0f}m, seats={self.seats_available}/"
            f"{self.seats_total}, detour_left={self.detour_limit_m:.0f}m, "
            f"vias={len(self.via_points)})"
        )
