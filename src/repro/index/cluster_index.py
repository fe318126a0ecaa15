"""Per-cluster potential-ride lists (paper Section VI).

Each cluster C keeps tuples ⟨r, t⟩ — ride r can serve requests near C with an
estimated arrival time t — "in two different lists, one sorted in
non-decreasing order by the time of arrival, and the other sorted by the
unique ride identification numbers".  Here both lists are views of one
``ride id -> ETA`` dict per cluster, built on the first read after a write
and dropped by the next (like the flat index's slab views), so every write
is a dict operation.  One entry is kept per (cluster, ride): when several
pass-through clusters make the same ride potential for C, the earliest ETA
wins.

Tie rule: a write that changes a ride's ETA re-inserts its dict key, and the
ETA view is a stable sort of the dict, so equal ETAs are listed in the order
they were set — where ``bisect_right`` insertion into a sorted list puts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .sorted_list import SortedKeyList


@dataclass(frozen=True)
class PotentialRide:
    """One ⟨ride, eta⟩ tuple in a cluster's potential-ride lists."""

    ride_id: int
    eta_s: float


class ClusterRideIndex:
    """All clusters' potential rides: one dict each, two lazy sorted views."""

    def __init__(self, n_clusters: int):
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters!r}")
        #: cluster -> ride id -> ETA, in last-write order.
        self._etas: List[Dict[int, float]] = [{} for _c in range(n_clusters)]
        #: cluster -> (ETA-sorted, ride-sorted) views; None until read after a write.
        self._views: List[Optional[Tuple[SortedKeyList, list]]] = [None] * n_clusters

    @property
    def n_clusters(self) -> int:
        return len(self._etas)

    def add(self, cluster_id: int, ride_id: int, eta_s: float) -> None:
        """Insert (or improve) ride's entry at a cluster.

        If the ride is already potential for this cluster, the entry is
        replaced only when the new ETA is earlier.
        """
        existing = self._etas[cluster_id].get(ride_id)
        if existing is None or eta_s < existing:
            self.update(cluster_id, ride_id, eta_s)

    def update(self, cluster_id: int, ride_id: int, eta_s: float) -> None:
        """Insert or *replace* ride's entry at a cluster, whatever the ETA.

        :meth:`add` implements the paper's merge rule (earliest ETA wins),
        which is correct when several pass-through clusters contribute
        candidate ETAs for the same ride during one indexing pass.  It is
        wrong for *re*-indexing: a booking splice shifts schedules later,
        and keeping the stale earlier ETA pins the pre-booking schedule in
        the index forever.  Reindex paths must use ``update`` so the stored
        ETA always matches the recomputed schedule.
        """
        etas = self._etas[cluster_id]
        if etas.get(ride_id) == eta_s:
            return
        etas.pop(ride_id, None)
        etas[ride_id] = eta_s
        self._views[cluster_id] = None

    def remove(self, cluster_id: int, ride_id: int) -> bool:
        """Remove ride's entry at a cluster; True if it existed."""
        if self._etas[cluster_id].pop(ride_id, None) is None:
            return False
        self._views[cluster_id] = None
        return True

    def purge_ride(self, ride_id: int) -> int:
        """Remove a ride's entries from *every* cluster list; returns count.

        The entry-driven :meth:`remove` path trusts the ride's index entry
        to name the clusters it lives in; ``purge_ride`` is the
        belt-and-braces sweep used by withdrawal and self-healing so that a
        corrupted or stale entry can never leave a cancelled ride
        discoverable.
        """
        purged = 0
        for cluster_id, etas in enumerate(self._etas):
            if ride_id in etas:
                del etas[ride_id]
                self._views[cluster_id] = None
                purged += 1
        return purged

    def eta(self, cluster_id: int, ride_id: int) -> Optional[float]:
        """The stored ETA of a ride at a cluster, if potential there."""
        return self._etas[cluster_id].get(ride_id)

    def _sorted_views(self, cluster_id: int) -> Tuple[SortedKeyList, list]:
        views = self._views[cluster_id]
        if views is None:
            entries = [PotentialRide(r, t) for r, t in self._etas[cluster_id].items()]
            views = self._views[cluster_id] = (
                SortedKeyList(attrgetter("eta_s"), entries),
                sorted(entries, key=attrgetter("ride_id")),
            )
        return views

    def rides_in_window(
        self, cluster_id: int, start_s: float, end_s: float
    ) -> Iterator[PotentialRide]:
        """Binary search on the ETA-sorted list (the paper's Step 1 lookup)."""
        return self._sorted_views(cluster_id)[0].irange(start_s, end_s)

    def count_in_window(self, cluster_id: int, start_s: float, end_s: float) -> int:
        """How many potential rides fall in the ETA window — two bisects,
        no iteration.  Lets the search choose between scanning a window and
        probing a candidate set without paying for the scan first."""
        return self._sorted_views(cluster_id)[0].count_in_range(start_s, end_s)

    def potential_count(self, cluster_id: int) -> int:
        return len(self._etas[cluster_id])

    def all_rides(self, cluster_id: int) -> Iterator[PotentialRide]:
        return iter(self._sorted_views(cluster_id)[1])

    def total_entries(self) -> int:
        """Total ⟨r, t⟩ tuples across clusters (a memory-footprint proxy)."""
        return sum(map(len, self._etas))

    def check_consistency(self) -> None:
        """Debug invariant: views built since their cluster's last write list
        exactly that cluster's entries, in their order."""
        for cluster_id, views in enumerate(self._views):
            entries = self._etas[cluster_id].items()
            if views is not None and [
                [(entry.ride_id, entry.eta_s) for entry in view] for view in views
            ] != [sorted(entries, key=itemgetter(1)), sorted(entries)]:
                raise AssertionError(f"cluster {cluster_id} sorted view diverged")
