"""Ride-level state snapshots for transactional booking and auditing.

A booking mutates four pieces of mutable state — the ride's route +
via-points, its seat count, its detour budget, and its spatio-temporal index
footprint (the :class:`~repro.index.ride_index.RideIndexEntry` plus one
``⟨ride, eta⟩`` tuple per reachable cluster).  ``snapshot_ride`` captures all
four; ``restore_ride`` puts them back *verbatim* (no recomputation), so a
rolled-back booking is indistinguishable from one that never happened.

``diff_ride`` is the audit-grade comparison used by tests and the invariant
auditor: it returns a human-readable list of every field that differs between
the live engine state and a snapshot (empty list == byte-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.ride import RouteGeometry
from ..index import RideIndexEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import XAREngine


@dataclass
class RideSnapshot:
    """Everything mutable about one ride at a point in time."""

    ride_id: int
    #: The ride's route arrays.  Read-only — a splice installs new ones —
    #: so the reference is the snapshot, like ``entry`` below.
    geometry: RouteGeometry
    via_points: list
    seats_available: int
    seats_total: int
    detour_limit_m: float
    status: object
    progressed_m: float
    tracked_to: Optional[float]
    #: The ride's index entry (None when the ride is un-indexed).  Entries
    #: are immutable — tracking and reindexing replace them — so the
    #: reference is the snapshot.
    entry: Optional[RideIndexEntry]
    #: cluster id -> ETA currently stored in the cluster index for this ride.
    index_etas: Dict[int, float] = field(default_factory=dict)
    #: Booked passengers (request id -> frozen PassengerRecord).
    passengers: Dict[int, object] = field(default_factory=dict)
    #: Shift-end retirement flag at snapshot time.
    retired: bool = False

    @property
    def route(self) -> List[int]:
        return self.geometry.route.tolist()


def snapshot_ride(engine: "XAREngine", ride_id: int) -> Optional[RideSnapshot]:
    """Capture one ride's full mutable state; None for unknown rides."""
    ride = engine.rides.get(ride_id)
    if ride is None:
        return None
    entry = engine.ride_entries.get(ride_id)
    index_etas: Dict[int, float] = {}
    if entry is not None:
        for cluster_id in entry.reachable:
            eta = engine.cluster_index.eta(cluster_id, ride_id)
            if eta is not None:
                index_etas[cluster_id] = eta
    return RideSnapshot(
        ride_id=ride_id,
        geometry=ride.geometry,
        via_points=list(ride.via_points),
        seats_available=ride.seats_available,
        seats_total=ride.seats_total,
        detour_limit_m=ride.detour_limit_m,
        status=ride.status,
        progressed_m=ride.progressed_m,
        tracked_to=engine.tracked_to.get(ride_id),
        entry=entry,
        index_etas=index_etas,
        passengers=dict(ride.passengers),
        retired=ride.retired,
    )


def restore_ride(engine: "XAREngine", snapshot: RideSnapshot) -> None:
    """Put a ride back exactly as snapshotted (no recomputation).

    Restores the route/via-points, seat and detour accounting, tracking
    progress, the ride's index entry, and its cluster-index membership.
    Idempotent: restoring twice leaves the same state.
    """
    ride = engine.rides.get(snapshot.ride_id)
    if ride is None:
        return
    ride.replace_route(snapshot.geometry, snapshot.via_points)
    ride.seats_available = snapshot.seats_available
    ride.detour_limit_m = snapshot.detour_limit_m
    ride.status = snapshot.status
    ride.progressed_m = snapshot.progressed_m
    ride.passengers = dict(snapshot.passengers)
    ride.retired = snapshot.retired
    if snapshot.tracked_to is None:
        engine.tracked_to.pop(snapshot.ride_id, None)
    else:
        engine.tracked_to[snapshot.ride_id] = snapshot.tracked_to

    # Wipe the ride's current index footprint (a full purge, so strays go
    # too), then replay the snapshotted footprint.
    engine.ride_entries.pop(snapshot.ride_id, None)
    engine.cluster_index.purge_ride(snapshot.ride_id)
    if getattr(engine, "flat_index", None) is not None:
        engine.flat_index.drop_ride(snapshot.ride_id)
    restored = snapshot.entry
    if restored is not None:
        engine.ride_entries[snapshot.ride_id] = restored
        for cluster_id, eta_s in snapshot.index_etas.items():
            engine.cluster_index.add(cluster_id, snapshot.ride_id, eta_s)
        if getattr(engine, "flat_index", None) is not None:
            # Replay the same snapshotted ETAs (seats/detour were restored
            # above, so the budget columns come back verbatim too).
            engine.flat_index.reindex_ride(ride, restored, snapshot.index_etas)


def diff_ride(engine: "XAREngine", snapshot: RideSnapshot) -> List[str]:
    """Every difference between live state and a snapshot (empty == identical)."""
    diffs: List[str] = []
    ride = engine.rides.get(snapshot.ride_id)
    if ride is None:
        return [f"ride {snapshot.ride_id} no longer exists"]
    if ride.route != snapshot.route:
        diffs.append("route differs")
    if list(ride.via_points) != snapshot.via_points:
        diffs.append("via-points differ")
    if ride.seats_available != snapshot.seats_available:
        diffs.append(
            f"seats {ride.seats_available} != {snapshot.seats_available}"
        )
    if ride.detour_limit_m != snapshot.detour_limit_m:
        diffs.append(
            f"detour budget {ride.detour_limit_m!r} != {snapshot.detour_limit_m!r}"
        )
    if ride.status is not snapshot.status:
        diffs.append(f"status {ride.status} != {snapshot.status}")
    if ride.progressed_m != snapshot.progressed_m:
        diffs.append("progress differs")
    if dict(ride.passengers) != dict(snapshot.passengers):
        diffs.append("passenger records differ")
    if ride.retired != snapshot.retired:
        diffs.append(f"retired {ride.retired} != {snapshot.retired}")
    if engine.tracked_to.get(snapshot.ride_id) != snapshot.tracked_to:
        diffs.append("tracked_to differs")

    entry = engine.ride_entries.get(snapshot.ride_id)
    if (entry is None) != (snapshot.entry is None):
        diffs.append("index entry presence differs")
    elif entry is not snapshot.entry:
        if entry.pass_through != snapshot.entry.pass_through:
            diffs.append("pass-through visits differ")
        if entry.segments != snapshot.entry.segments:
            diffs.append("segment metadata differs")
        if set(entry.reachable) != set(snapshot.entry.reachable):
            diffs.append("reachable cluster sets differ")
        else:
            for cluster_id, info in entry.reachable.items():
                expected = snapshot.entry.reachable[cluster_id]
                if (
                    info.supports != expected.supports
                    or info.eta_s != expected.eta_s
                    or info.detour_estimate_m != expected.detour_estimate_m
                    or info.support_landmark != expected.support_landmark
                    or info.via_landmark != expected.via_landmark
                ):
                    diffs.append(f"reachable info for cluster {cluster_id} differs")

    live_etas: Dict[int, float] = {}
    reachable = entry.reachable_ids() if entry is not None else set()
    for cluster_id in reachable:
        eta = engine.cluster_index.eta(cluster_id, snapshot.ride_id)
        if eta is not None:
            live_etas[cluster_id] = eta
    if live_etas != snapshot.index_etas:
        diffs.append("cluster-index ETAs differ")
    return diffs
