"""Per-ride spatio-temporal index entries (paper Section VI).

For every ride the system maintains:

* its **pass-through clusters** — clusters of the landmarks of the grids its
  route crosses, each with a segment index and an ETA,
* per pass-through cluster, the **reachable clusters** that pass the detour
  test ``d(C, C') + d(C', via_{i+1}) - d(C, via_{i+1}) <= d``,
* the reverse view reachable-cluster → supporting pass-through clusters,
  which is what tracking's Step 2 needs to decide whether a cluster is
  *obsolete* ("can the cluster still be reached through any valid
  pass-through cluster?").

A :class:`RideIndexEntry` holds all three as a few immutable arrays, not as
one Python object per cluster — at fleet scale the per-object overhead
outweighed the data (≈ 31 kB a ride as objects, ≈ 3.3 kB as arrays, on
the benchmark city):

* pass-through visits, in route order: ``visit_f`` = ``(eta, offset)`` and
  ``visit_i`` = ``(cluster, segment, landmark)``.  A cluster is visited at
  most once (first encounter), so a visit *is* its pass-through cluster;
* reachable rows, in the order the clusters were first met while building
  (that order becomes the slab append order the flat index's stable sorts
  tie on): ``reach_f`` = ``(eta, detour)`` and ``reach_i`` =
  ``(cluster, support_landmark, via_landmark)``;
* ``supports`` — ``bool[n_reachable, n_visits]``: row r is supported by
  visit v;
* per route segment, ``segment_landmarks`` = ``(start, end)`` (-1 when the
  via node has no landmark) and ``segment_length_m``.

Nothing mutates an entry: tracking derives a new one (:meth:`after`), so a
booking snapshot holds a reference, not a copy.  Readers that want objects
get them from read-only views — :attr:`pass_through`, :attr:`segments` and
the ordered mapping :attr:`reachable` of frozen :class:`ReachableInfo`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

#: ``visit_f`` / ``visit_i`` columns.
V_ETA, V_OFFSET = 0, 1
V_CLUSTER, V_SEGMENT, V_LANDMARK = 0, 1, 2
#: ``reach_f`` / ``reach_i`` columns.
R_ETA, R_DETOUR = 0, 1
R_CLUSTER, R_SUPPORT_LM, R_VIA_LM = 0, 1, 2


@dataclass(frozen=True)
class PassThrough:
    """A ride's visit of a cluster along its route."""

    cluster_id: int
    segment_index: int
    eta_s: float
    route_offset_m: float
    #: Landmark whose grid triggered the visit — refines detour estimates.
    landmark_id: int = -1


@dataclass(frozen=True)
class ReachableInfo:
    """How a ride can serve a (reachable) cluster off its route."""

    cluster_id: int
    #: Pass-through clusters from which this cluster stays within detour.
    supports: FrozenSet[int]
    #: Earliest estimated arrival over all supports.
    eta_s: float
    #: Smallest cluster-level detour estimate over all supports (metres).
    detour_estimate_m: float
    #: Landmark of the min-detour supporting visit (-1 if unknown); lets the
    #: search refine the detour estimate to landmark level without touching
    #: the cluster-level index semantics.
    support_landmark: int = -1
    #: Landmark standing in for the next via-point of that support.
    via_landmark: int = -1


@dataclass(frozen=True)
class SegmentMeta:
    """Landmark-level view of one route segment, for detour estimation.

    ``length_m`` is the exact on-route length; the landmarks stand in for the
    segment's bounding via-points (-1 when the via node has no landmark).
    """

    start_landmark: int
    end_landmark: int
    length_m: float


class Obsolescence(NamedTuple):
    """What tracking to a time does to an entry (see :meth:`RideIndexEntry.after`)."""

    #: The entry without the crossed visits and the unsupported rows.
    entry: "RideIndexEntry"
    #: Reachable clusters left with no support (Step 2's removals).
    orphaned: List[int]
    #: Surviving reachable clusters that lost at least one support.
    shrunk: List[int]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class RideIndexEntry:
    """Everything the index knows about one ride's geometry, as arrays."""

    __slots__ = (
        "ride_id",
        "visit_f",
        "visit_i",
        "reach_f",
        "reach_i",
        "supports",
        "segment_landmarks",
        "segment_length_m",
    )

    def __init__(
        self,
        ride_id: int,
        visit_f: np.ndarray,
        visit_i: np.ndarray,
        reach_f: np.ndarray,
        reach_i: np.ndarray,
        supports: np.ndarray,
        segment_landmarks: np.ndarray,
        segment_length_m: np.ndarray,
    ):
        init = object.__setattr__
        init(self, "ride_id", ride_id)
        init(self, "visit_f", _frozen(visit_f))
        init(self, "visit_i", _frozen(visit_i))
        init(self, "reach_f", _frozen(reach_f))
        init(self, "reach_i", _frozen(reach_i))
        init(self, "supports", _frozen(supports))
        init(self, "segment_landmarks", _frozen(segment_landmarks))
        init(self, "segment_length_m", _frozen(segment_length_m))

    def __setattr__(self, name, value):
        raise AttributeError(f"RideIndexEntry is immutable (setting {name!r})")

    def __repr__(self) -> str:
        return (
            f"RideIndexEntry(ride_id={self.ride_id}, visits={len(self.visit_i)}, "
            f"reachable={len(self.reach_i)}, segments={len(self.segment_length_m)})"
        )

    # ------------------------------------------------------------------
    # Read-only object views
    # ------------------------------------------------------------------
    @property
    def pass_through(self) -> Tuple[PassThrough, ...]:
        """Pass-through visits in route order (ascending ETA)."""
        return tuple(
            PassThrough(cluster, segment, eta, offset, landmark)
            for (eta, offset), (cluster, segment, landmark) in zip(
                self.visit_f.tolist(), self.visit_i.tolist()
            )
        )

    @property
    def segments(self) -> Tuple[SegmentMeta, ...]:
        """Per-segment metadata aligned with the ride's segments at index time."""
        return tuple(
            SegmentMeta(start, end, length)
            for (start, end), length in zip(
                self.segment_landmarks.tolist(), self.segment_length_m.tolist()
            )
        )

    @property
    def reachable(self) -> "ReachableView":
        """cluster id -> :class:`ReachableInfo`, in build order (includes
        the pass-through clusters themselves with detour estimate 0)."""
        return ReachableView(self)

    def pass_through_ids(self) -> Set[int]:
        return set(self.visit_i[:, V_CLUSTER].tolist())

    def reachable_ids(self) -> Set[int]:
        return set(self.reach_i[:, R_CLUSTER].tolist())

    def reachable_etas(self) -> Dict[int, float]:
        """cluster id -> ETA, in row order (what the cluster index stores)."""
        return dict(
            zip(self.reach_i[:, R_CLUSTER].tolist(), self.reach_f[:, R_ETA].tolist())
        )

    def unsupported(self) -> List[int]:
        """Reachable clusters with no supporting visit (none, when sound)."""
        return self.reach_i[~self.supports.any(axis=1), R_CLUSTER].tolist()

    def row_of(self, cluster_id: int) -> Optional[int]:
        """Reachable row of ``cluster_id``, or None."""
        rows = (self.reach_i[:, R_CLUSTER] == cluster_id).nonzero()[0]
        return int(rows[0]) if len(rows) else None

    # ------------------------------------------------------------------
    # Segment choice
    # ------------------------------------------------------------------
    def segment_for(
        self,
        cluster_id: int,
        earliest: bool,
        at_least: Optional[int] = None,
    ) -> Optional[int]:
        """Segment on which the ride serves ``cluster_id``.

        Chosen from the supporting pass-through visits: earliest visit for a
        pickup, latest for a drop-off (the first such visit in route order
        on equal ETAs); ``at_least`` constrains the choice when
        pickup-before-drop-off ordering matters.  Used identically by the
        search estimate and the booking splice so they agree.
        """
        row = self.row_of(cluster_id)
        if row is None:
            return None
        candidates = self.supports[row]
        if at_least is not None:
            candidates = candidates & (self.visit_i[:, V_SEGMENT] >= at_least)
        visits = candidates.nonzero()[0]
        if not len(visits):
            return None
        etas = self.visit_f[visits, V_ETA]
        chosen = visits[etas.argmin() if earliest else etas.argmax()]
        return int(self.visit_i[chosen, V_SEGMENT])

    def support_segments(self, cluster_id: int) -> List[int]:
        """Sorted distinct segments of ``cluster_id``'s supporting visits."""
        row = self.row_of(cluster_id)
        if row is None:
            return []
        return np.unique(self.visit_i[self.supports[row], V_SEGMENT]).tolist()

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def after(self, now_s: float) -> Optional[Obsolescence]:
        """The entry once the ride has crossed every visit due by ``now_s``
        (tracking Steps 1–3), or None when no visit is due.

        Visits are in route order, so their ETAs ascend and the crossed
        visits (``eta <= now_s``) are a prefix.  Their support columns go,
        rows left with no support are orphaned, and the crossed visits leave
        the pass-through list.  Arrays that do not change are shared.
        """
        k = int(self.visit_f[:, V_ETA].searchsorted(now_s, side="right"))
        if not k:
            return None
        kept = self.supports[:, k:]
        alive = kept.any(axis=1)
        lost = self.supports[:, :k].any(axis=1).tolist()
        clusters = self.reach_i[:, R_CLUSTER].tolist()
        orphaned: List[int] = []
        shrunk: List[int] = []
        for cluster_id, survives, lost_one in zip(clusters, alive.tolist(), lost):
            if not survives:
                orphaned.append(cluster_id)
            elif lost_one:
                shrunk.append(cluster_id)
        if orphaned:
            rows = alive.nonzero()[0]
            reach_f = self.reach_f.take(rows, axis=0)
            reach_i = self.reach_i.take(rows, axis=0)
            supports = kept.take(rows, axis=0)
        else:
            reach_f, reach_i, supports = self.reach_f, self.reach_i, kept.copy()
        entry = RideIndexEntry._derived(
            self,
            self.visit_f[k:].copy(),
            self.visit_i[k:].copy(),
            reach_f,
            reach_i,
            supports,
        )
        return Obsolescence(entry, orphaned, shrunk)

    @classmethod
    def _derived(cls, parent, visit_f, visit_i, reach_f, reach_i, supports):
        """A new entry sharing ``parent``'s segments; only arrays not
        already frozen are frozen."""
        entry = object.__new__(cls)
        init = object.__setattr__
        init(entry, "ride_id", parent.ride_id)
        for name, array in (
            ("visit_f", visit_f),
            ("visit_i", visit_i),
            ("reach_f", reach_f),
            ("reach_i", reach_i),
            ("supports", supports),
        ):
            if array.flags.writeable:
                array.setflags(write=False)
            init(entry, name, array)
        init(entry, "segment_landmarks", parent.segment_landmarks)
        init(entry, "segment_length_m", parent.segment_length_m)
        return entry


class ReachableView(Mapping):
    """Read-only, ordered ``cluster id -> ReachableInfo`` view of an entry.

    Values are built on access; nothing is cached on the entry.
    """

    __slots__ = ("_entry", "_ids")

    def __init__(self, entry: RideIndexEntry):
        self._entry = entry
        self._ids = entry.reach_i[:, R_CLUSTER].tolist()

    def _row(self, cluster_id) -> Optional[int]:
        try:
            return self._ids.index(cluster_id)
        except ValueError:
            return None

    def _info(self, row: int) -> ReachableInfo:
        entry = self._entry
        eta, detour = entry.reach_f[row].tolist()
        cluster, support_landmark, via_landmark = entry.reach_i[row].tolist()
        supports = entry.visit_i[entry.supports[row], V_CLUSTER].tolist()
        return ReachableInfo(
            cluster, frozenset(supports), eta, detour, support_landmark, via_landmark
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, cluster_id) -> bool:
        return cluster_id in self._ids

    def __getitem__(self, cluster_id) -> ReachableInfo:
        row = self._row(cluster_id)
        if row is None:
            raise KeyError(cluster_id)
        return self._info(row)

    def get(self, cluster_id, default=None):
        row = self._row(cluster_id)
        return default if row is None else self._info(row)

    def values(self) -> List[ReachableInfo]:
        return [self._info(row) for row in range(len(self._ids))]

    def items(self) -> List[Tuple[int, ReachableInfo]]:
        return list(zip(self._ids, self.values()))

    def __repr__(self) -> str:
        return f"ReachableView({dict(self.items())!r})"
