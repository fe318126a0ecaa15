"""Ride tracking (paper Section VIII-A).

Once a ride is on the move, clusters it has already crossed — and clusters it
can no longer reach within its detour budget — are *obsolete* and must stop
surfacing the ride as a potential match.  The paper's three steps:

* **Step 1** — mark each crossed pass-through cluster and all its connected
  reachable clusters obsolete;
* **Step 2** — a cluster marked obsolete may still be reachable through a
  *valid* (not yet crossed) pass-through cluster; only when no valid support
  remains is the ride removed from the cluster's potential-ride list;
* **Step 3** — drop the crossed pass-through clusters from the ride's
  pass-through list.

:class:`~repro.index.ride_index.RideIndexEntry` stores a boolean support
matrix (reachable cluster x pass-through visit), so Steps 1–3 are one mask:
the visits whose ETA has passed lose their columns, the rows left with no
support are the obsolete clusters, and the entry is replaced by the masked
one.  A ride past its arrival time is removed entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..exceptions import UnknownRideError
from ..index import RideIndexEntry
from .ride import Ride, RideStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import XAREngine


def track_ride(engine: "XAREngine", ride_id: int, now_s: float) -> None:
    """Advance one ride's spatio-temporal index state to ``now_s``."""
    ride = engine.rides.get(ride_id)
    if ride is None:
        raise UnknownRideError(ride_id)
    previous = engine.tracked_to.get(ride_id)
    if previous is not None and now_s < previous:
        raise ValueError(
            f"ride {ride_id}: tracking cannot move backwards "
            f"({now_s} < {previous})"
        )
    engine.tracked_to[ride_id] = now_s

    if now_s < ride.departure_s:
        return
    if now_s >= ride.arrival_s:
        _complete(engine, ride)
        return

    if (
        ride.shift_end_s is not None
        and now_s >= ride.shift_end_s
        and not ride.retired
    ):
        _retire(engine, ride)

    ride.status = RideStatus.ACTIVE
    ride.progressed_m = ride.offset_at_index(ride.index_at_time(now_s))
    apply_obsolescence(engine, ride_id, now_s)


def apply_obsolescence(
    engine: "XAREngine", ride_id: int, now_s: float
) -> Optional[RideIndexEntry]:
    """Steps 1–3 for one ride at time ``now_s``; returns the ride's entry
    as it now stands (a new one if any visit was crossed)."""
    entry = engine.ride_entries.get(ride_id)
    if entry is None:
        return None
    step = entry.after(now_s)
    if step is None:
        return entry
    engine.ride_entries[ride_id] = step.entry
    # Clusters that lost all support are truly obsolete and leave the
    # potential-ride lists.
    for cluster_id in step.orphaned:
        engine.cluster_index.remove(cluster_id, ride_id)
    flat_index = getattr(engine, "flat_index", None)
    if flat_index is not None:
        # Mirror the shrink: orphaned clusters lose their row; survivors
        # whose supports just changed refresh their precomputed segment
        # choice (it depends on nothing else).
        flat_index.refresh_supports(ride_id, step.entry, step.shrunk)
    return step.entry


def track_all(engine: "XAREngine", now_s: float) -> int:
    """Track every ride; returns how many rides completed and left the index."""
    completed = 0
    for ride_id in list(engine.rides):
        ride = engine.rides[ride_id]
        previous = engine.tracked_to.get(ride_id)
        if previous is not None and now_s < previous:
            continue  # another caller already tracked this ride further
        track_ride(engine, ride_id, now_s)
        if ride.status is RideStatus.COMPLETED:
            completed += 1
    return completed


def _retire(engine: "XAREngine", ride: Ride) -> None:
    """Driver shift ended: withdraw the ride from the search index while it
    keeps driving its committed route (strand-free drain).

    The ride stays in ``engine.rides`` until arrival so booked passengers
    still reach their drop-offs; it just stops surfacing as a match and
    ``book_ride`` refuses it.  The full index footprint goes in one step,
    exactly like completion.
    """
    ride.retired = True
    _withdraw(engine, ride.ride_id)


def _complete(engine: "XAREngine", ride: Ride) -> None:
    """Remove a finished ride from every index structure."""
    ride.status = RideStatus.COMPLETED
    ride.progressed_m = ride.length_m
    _withdraw(engine, ride.ride_id)
    engine.rides.pop(ride.ride_id, None)
    # Drop the tracking watermark too — leaking it would grow unboundedly
    # over a long-running deployment and confuse later id reuse audits.
    engine.tracked_to.pop(ride.ride_id, None)
    engine.completed_rides[ride.ride_id] = ride


def _withdraw(engine: "XAREngine", ride_id: int) -> None:
    """Drop a ride's entry, its cluster potential-ride rows — swept from
    every cluster, so strays a corrupted entry would not name go too — and
    its flat-index rows."""
    engine.ride_entries.pop(ride_id, None)
    engine.cluster_index.purge_ride(ride_id)
    if getattr(engine, "flat_index", None) is not None:
        engine.flat_index.drop_ride(ride_id)
