"""Engine self-diagnosis: verify every structural invariant at once.

``validate_engine`` is the library's doctor function: tests call it after
fuzzing, operators can call it in production to detect index corruption.  It
raises :class:`EngineInvariantError` with a description of the first
violation, or returns a small summary dict when everything holds.

Invariants checked (see docs/ARCHITECTURE.md):

1. every cluster's built sorted views list exactly its ⟨ride, eta⟩ entries;
2. every ride index entry belongs to a live ride, and vice versa;
3. every cluster-index entry is backed by the ride's reachable set, and
   every reachable cluster appears in the cluster index;
4. every reachable cluster has at least one supporting pass-through visit
   (supports are columns of the ride's visits, so they are pass-through
   clusters by construction);
5. seats within [0, total]; #pickup via-points == seats consumed;
6. detour budget non-negative;
7. via-points non-decreasing along the route and anchored at its ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..exceptions import XARError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import XAREngine


class EngineInvariantError(XARError):
    """An engine structural invariant does not hold."""


def validate_engine(engine: "XAREngine") -> Dict[str, int]:
    """Check all invariants; raise :class:`EngineInvariantError` on the
    first violation, else return counters of what was inspected."""
    # 1. Sorted-view consistency (raises AssertionError internally; convert).
    try:
        engine.cluster_index.check_consistency()
    except AssertionError as exc:
        raise EngineInvariantError(str(exc)) from exc

    # 2-4. Entries <-> rides <-> cluster index.
    for ride_id, entry in engine.ride_entries.items():
        if ride_id not in engine.rides:
            raise EngineInvariantError(f"index entry for dead ride {ride_id}")
        for cluster_id in entry.unsupported():
            raise EngineInvariantError(
                f"ride {ride_id}: reachable cluster {cluster_id} has no supports"
            )
        for cluster_id in entry.reachable:
            if engine.cluster_index.eta(cluster_id, ride_id) is None:
                raise EngineInvariantError(
                    f"ride {ride_id}: reachable cluster {cluster_id} missing "
                    "from the cluster index"
                )
    for ride_id, ride in engine.rides.items():
        if ride.retired:
            # Retired rides drain outside the index by design; their entry
            # must be *absent*.
            if ride_id in engine.ride_entries:
                raise EngineInvariantError(
                    f"retired ride {ride_id} still has an index entry"
                )
            continue
        if ride_id not in engine.ride_entries:
            raise EngineInvariantError(f"live ride {ride_id} has no index entry")

    # Reverse direction: no cluster-index entry without a reachable record.
    for cluster_id in range(engine.cluster_index.n_clusters):
        for potential in engine.cluster_index.all_rides(cluster_id):
            entry = engine.ride_entries.get(potential.ride_id)
            if entry is None or cluster_id not in entry.reachable:
                raise EngineInvariantError(
                    f"cluster {cluster_id} lists ride {potential.ride_id} "
                    "which does not (or no longer) reaches it"
                )

    # 5-7. Per-ride state.
    for ride in engine.rides.values():
        if not (0 <= ride.seats_available <= ride.seats_total):
            raise EngineInvariantError(
                f"ride {ride.ride_id}: seats {ride.seats_available}/"
                f"{ride.seats_total} out of range"
            )
        labels = [via.label for via in ride.via_points]
        consumed = ride.seats_total - ride.seats_available
        if labels.count("pickup") != consumed:
            raise EngineInvariantError(
                f"ride {ride.ride_id}: {labels.count('pickup')} pickups vs "
                f"{consumed} seats consumed"
            )
        if ride.detour_limit_m < 0:
            raise EngineInvariantError(
                f"ride {ride.ride_id}: negative detour budget"
            )
        indices = [via.route_index for via in ride.via_points]
        if indices != sorted(indices):
            raise EngineInvariantError(
                f"ride {ride.ride_id}: via-points out of order"
            )
        if indices[0] != 0 or indices[-1] != len(ride.route) - 1:
            raise EngineInvariantError(
                f"ride {ride.ride_id}: via-points not anchored at route ends"
            )
        # 8. Per-passenger budgets: every passenger record points at a real
        # pickup/dropoff via pair and the consumed detour respects the
        # passenger's own declared budget.
        for record in ride.passengers.values():
            try:
                consumed = ride.passenger_consumed_m(record.request_id)
            except XARError as exc:
                raise EngineInvariantError(
                    f"ride {ride.ride_id}: passenger {record.request_id} "
                    f"record without via-points ({exc})"
                ) from exc
            if (
                record.max_detour_m is not None
                and consumed > record.max_detour_m
            ):
                raise EngineInvariantError(
                    f"ride {ride.ride_id}: passenger {record.request_id} "
                    f"consumed {consumed:.1f} m over their "
                    f"{record.max_detour_m:.1f} m budget"
                )

    return {
        "rides": len(engine.rides),
        "entries": len(engine.ride_entries),
        "cluster_entries": engine.cluster_index.total_entries(),
    }
