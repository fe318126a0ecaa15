"""Flat struct-of-arrays search core over one index-wide row arena.

The legacy search path walks per-ride Python objects: ``SortedKeyList`` →
``PotentialRide`` dataclasses → ``RideIndexEntry`` dicts → ``segment_for``
scans, paying interpreter overhead on every candidate.  This module stores
the same information as primitive arrays so the hot stages become a few
dozen numpy calls over small arrays:

* **Row arena** — one row per (cluster, ride): ride id, stored ETA,
  cluster-level detour estimate, and the *precomputed feasibility bounds*
  the filter stage needs (pickup/drop-off segment choice plus that
  segment's bounding landmarks and on-route length, i.e. everything
  ``segment_for`` + ``_splice_estimate`` would otherwise recompute per
  candidate per search).  All rows of all clusters live in three index-wide
  arrays; a row's index there is its *global id*, so a search gathers the
  columns of candidates from many clusters in one call.
* **Per-cluster slab** — a contiguous region of the arena (append +
  swap-remove, O(1) mutation) and the paper's per-cluster sorted list as
  two lazily sorted views of it: global ids by ETA (the departure window is
  two binary searches and a slice) and by ride id (the R1 ∩ R2 probe).
  Views are rebuilt on first query after a mutation — a create/book/track
  burst dirties slabs for free and the next search pays two ``argsort``
  per *touched* cluster.  A slab keeps no ride → row map: it works on
  storage rows (``append`` returns one, ``remove_row`` and
  ``update_pickup`` take one).
* **Row handles** — per ride, the clusters holding a row for it and one
  int32 ``array("i")`` of those rows' storage rows, aligned.  A storage
  row is relative to its slab's region, so a region move leaves it valid;
  a swap-remove moves one other ride's row, and that ride's handle is
  patched.  (A ``rid → row`` dict per slab cost ≈ 85 B a row.)
* **Budget columns** — one global row per ride: seats available and the
  remaining detour budget as of the last (re)index, kept for the mirror
  audit only.  The feasibility filter reads both *live* from the ride
  objects, so a seat changed outside the reindex seam is honoured at once.

The index is a strict mirror: every mutation flows through the same engine
seams that maintain ``ClusterRideIndex`` (index / unindex / reindex /
obsolescence / restore / purge), ``check_consistency``/``divergences``
compare the two, and the invariant auditor heals any drift by reindexing.
"""

from __future__ import annotations

import math
import mmap
import weakref
from array import array
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .ride_index import R_CLUSTER, R_DETOUR, V_ETA, V_SEGMENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import XAREngine
    from ..core.ride import Ride
    from .ride_index import RideIndexEntry

__all__ = ["FlatSearchIndex", "flat_search_rides"]

#: Float columns of a slab row.
F_ETA, F_DETOUR, F_SP_LEN, F_SD_LEN = 0, 1, 2, 3
_N_F = 4
#: Int columns of a slab row (-1 encodes "none"/"unknown landmark").
I_SEG_E, I_SEG_L, I_SP_A, I_SP_B, I_SD_A, I_SD_B = 0, 1, 2, 3, 4, 5
_N_I = 6

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_IDX = np.empty(0, dtype=np.intp)


#: Column values of a row whose cluster has no supporting segment: the
#: invalid triple makes the vectorized splice fall back to the coarse
#: cluster-level estimate — exactly when ``_splice_estimate`` returns None.
_NO_SEGMENT = (-1, -1, 0.0)

_Row = Tuple[
    int, Tuple[float, float, float, float], Tuple[int, int, int, int, int, int]
]


def _feasibility_rows(
    entry: "RideIndexEntry",
    etas: Iterable[Tuple[int, float]],
) -> Iterator[_Row]:
    """Slab rows ``(cluster, float columns, int columns)`` of one ride, for
    the given ``(cluster, stored ETA)`` pairs.

    A row's pickup/drop-off segment is that of the earliest/latest
    pass-through visit among its cluster's supports — what
    ``entry.segment_for(cluster, earliest=True|False)`` picks.  Here it is
    one pass over the support matrix per *entry*: the visits are ranked by
    ETA ascending and descending (stable, so equal ETAs keep route order —
    ``segment_for``'s first-minimal / first-maximal rule), and each row
    takes its first supporting visit in either ranking.
    """
    supports = entry.supports
    eta = entry.visit_f[:, V_ETA]
    segment = entry.visit_i[:, V_SEGMENT]
    supported = supports.any(axis=1).tolist()
    if len(eta):
        earliest = np.argsort(eta, kind="stable")
        latest = np.argsort(-eta, kind="stable")
        earliest_seg = segment[earliest][supports[:, earliest].argmax(axis=1)].tolist()
        latest_seg = segment[latest][supports[:, latest].argmax(axis=1)].tolist()
    detours = entry.reach_f[:, R_DETOUR].tolist()
    row_of = {c: row for row, c in enumerate(entry.reach_i[:, R_CLUSTER].tolist())}
    segments = [
        (start, end, length)
        for (start, end), length in zip(
            entry.segment_landmarks.tolist(), entry.segment_length_m.tolist()
        )
    ]
    n_segments = len(segments)
    for cluster_id, eta_s in etas:
        row = row_of.get(cluster_id)
        detour = float("inf")
        seg_e = seg_l = -1
        pickup = dropoff = _NO_SEGMENT
        if row is not None:
            detour = detours[row]
            if supported[row]:
                seg_e, seg_l = earliest_seg[row], latest_seg[row]
                if 0 <= seg_e < n_segments:
                    pickup = segments[seg_e]
                if 0 <= seg_l < n_segments:
                    dropoff = segments[seg_l]
        yield (
            cluster_id,
            (eta_s, detour, pickup[2], dropoff[2]),
            (seg_e, seg_l, pickup[0], pickup[1], dropoff[0], dropoff[1]),
        )


def _pickup_columns(
    entry: "RideIndexEntry", ids: List[int], clusters: Iterable[int]
) -> Iterator[Tuple[int, int, Tuple[int, int, int, float]]]:
    """``(cluster, entry row, (segment, start landmark, end landmark,
    length))`` of the pickup segment of each given reachable cluster that
    keeps a support: that of its first supporting visit in route order —
    the earliest by ETA, first on ties, as visits are in route order and
    ETAs ascend.  ``ids`` are the entry's reachable clusters, by row."""
    row_of = dict(zip(ids, range(len(ids))))
    found = [cluster_id for cluster_id in clusters if cluster_id in row_of]
    if not found:
        return
    rows = [row_of[cluster_id] for cluster_id in found]
    supports = entry.supports[rows]
    first = supports.argmax(axis=1).tolist()
    supported = supports.any(axis=1).tolist()
    segment = entry.visit_i[:, V_SEGMENT].tolist()
    landmarks = entry.segment_landmarks.tolist()
    lengths = entry.segment_length_m.tolist()
    for cluster_id, row, visit, ok in zip(found, rows, first, supported):
        if ok:
            seg = segment[visit]
            yield cluster_id, row, (seg, *landmarks[seg], lengths[seg])


def _mapped(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An array over an anonymous private mapping: zero pages handed out on
    first touch and given back the moment the array dies.  Arena generations
    are multi-megabyte and short-lived; ``np.empty`` would take them from
    the malloc heap, where (once glibc's mmap threshold has adapted) the
    untouched slack is recycled dirty memory and dead generations stay
    behind as holes — several MB of resident set per engine."""
    count = math.prod(shape)
    if not count:
        return np.empty(shape, dtype=dtype)
    buffer = mmap.mmap(
        -1, count * np.dtype(dtype).itemsize, access=mmap.ACCESS_COPY
    )
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


class _RowArena:
    """Index-wide row storage: ``rids`` (rows, int64), ``F`` (rows x 4
    float64) and ``I`` (rows x 6 int32: segment indices and landmark ids),
    row-major, in which every slab owns one
    contiguous region ``[base, base + cap)``.  A row's *global id* is its
    arena index, so one fancy-indexed read gathers rows of many clusters.

    A full slab moves to a region twice its rows at the tail (the old region
    is dead until the next regrow).  When the tail would pass the end the
    arena regrows: fresh arrays half again the size of all regions, every
    slab laid out afresh with twice its current rows — which also takes back
    what emptied slabs held.  Amortised O(1) per appended row; capacity is at
    most 3x the rows (+ 12 per slab) as of the last regrow, and only the
    part below ``tail`` has ever been touched.
    """

    __slots__ = ("_slabs", "rids", "F", "I", "eta", "tail")

    def __init__(self):
        #: Weak, so that slab -> arena -> slab is not a reference cycle and a
        #: dropped index frees its arrays at once, not at the next full GC.
        self._slabs: List["weakref.ref[_ClusterSlab]"] = []
        self._allocate(0)

    def _allocate(self, capacity: int) -> None:
        self.rids = _mapped((capacity,), np.int64)
        self.F = _mapped((capacity, _N_F), np.float64)
        self.I = _mapped((capacity, _N_I), np.int32)
        #: The ETA column as a strided view, for 1-D gathers by global row.
        self.eta = self.F[:, F_ETA]
        self.tail = 0

    def adopt(self, slab: "_ClusterSlab") -> None:
        self._slabs.append(weakref.ref(slab))

    def grow(self, slab: "_ClusterSlab") -> None:
        """Give a full ``slab`` a region twice its rows (rows and their
        order are kept)."""
        if self.tail + max(8, 2 * slab.n) > len(self.rids):
            # Regrow: every slab that has ever held a row moves into a fresh
            # arena with the same headroom, the growing one last.
            others = [
                other for ref in self._slabs
                if (other := ref()) is not None and other.cap and other is not slab
            ]
            live = sum(max(8, 2 * other.n) for other in (*others, slab))
            self._allocate(live + live // 2)
            for other in others:
                self._place(other, max(8, 2 * other.n))
        self._place(slab, max(8, 2 * slab.n))

    def _place(self, slab: "_ClusterSlab", cap: int) -> None:
        """Move ``slab`` into ``[tail, tail + cap)`` and advance the tail."""
        base, n = self.tail, slab.n
        end = self.tail = base + cap
        rids, fdata, idata = self.rids[base:end], self.F[base:end], self.I[base:end]
        rids[:n] = slab.rids[:n]
        fdata[:n] = slab.fdata[:n]
        idata[:n] = slab.idata[:n]
        slab.rids, slab.fdata, slab.idata = rids, fdata, idata
        slab.base, slab.cap = base, cap
        slab.dirty = True  # the sorted views hold global ids


class _ClusterSlab:
    """One cluster's rows: an arena region (unsorted, append + swap-remove)
    plus the paper's two lazily sorted views of it, holding global ids.
    Rows are addressed by storage row; which ride holds which row is the
    index's business (its row handles)."""

    __slots__ = (
        "arena", "base", "cap", "n", "rids", "fdata", "idata", "dirty",
        "rid_sorted", "rid_rows", "eta_sorted", "eta_rows", "__weakref__",
    )

    def __init__(self, arena: _RowArena):
        self.arena = arena
        arena.adopt(self)
        self.base = self.cap = 0
        #: Live storage rows are ``[0, n)``.
        self.n = 0
        #: Views of the arena region (rebound whenever the region moves).
        self.rids = arena.rids[:0]
        self.fdata = arena.F[:0]
        self.idata = arena.I[:0]
        self.dirty = True
        self.rid_sorted = _EMPTY_I64
        self.rid_rows = _EMPTY_IDX
        self.eta_sorted = _EMPTY_F64
        self.eta_rows = _EMPTY_IDX

    # -- mutation -------------------------------------------------------
    def append(self, rid: int, fvals, ivals) -> int:
        """Add a row; returns its storage row."""
        row = self.n
        if row == self.cap:
            self.arena.grow(self)
        self.rids[row] = rid
        self.fdata[row] = fvals
        self.idata[row] = ivals
        self.n = row + 1
        self.dirty = True
        return row

    def update_pickup(self, row: int, pickup: Tuple[int, int, int, float]) -> None:
        """Refresh a row's pickup segment columns ``(segment, start
        landmark, end landmark, length)`` only; never dirties the sorted
        views."""
        segment, start, end, length = pickup
        idata = self.idata
        idata[row, I_SEG_E] = segment
        idata[row, I_SP_A] = start
        idata[row, I_SP_B] = end
        self.fdata[row, F_SP_LEN] = length

    def remove_row(self, row: int) -> Optional[int]:
        """Swap-remove a storage row: the last row moves into it.  Returns
        the ride id of the row that moved, None when ``row`` was the last."""
        last = self.n - 1
        moved = None
        if row != last:
            moved = self.rids.item(last)
            self.rids[row] = moved
            self.fdata[row] = self.fdata[last]
            self.idata[row] = self.idata[last]
        self.n = last
        self.dirty = True
        return moved

    # -- queries --------------------------------------------------------
    def rebuild(self) -> None:
        if not self.dirty:
            return
        n = self.n
        rids = self.rids[:n]
        order = rids.argsort(kind="stable")
        self.rid_sorted = rids[order]
        order += self.base
        self.rid_rows = order
        etas = self.fdata[:n, F_ETA]
        order = etas.argsort(kind="stable")
        self.eta_sorted = etas[order]
        order += self.base
        self.eta_rows = order
        self.dirty = False

    def window(self, start_s: float, end_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """(global rows, ETAs) with ``start_s <= eta <= end_s`` in ETA order:
        the paper's two binary searches over the cluster's sorted list, then
        a slice — zero copies.  Empty when the window is inverted."""
        self.rebuild()
        etas = self.eta_sorted
        lo = etas.searchsorted(start_s, "left")
        hi = etas.searchsorted(end_s, "right")
        return self.eta_rows[lo:hi], etas[lo:hi]


class _BudgetStore:
    """Global per-ride columns: seats available + remaining detour budget
    as of the last (re)index — what ``divergences`` audits against the live
    rides.  The search itself reads both live."""

    __slots__ = ("slots", "n", "rids", "seats", "detour")

    def __init__(self):
        self.slots: Dict[int, int] = {}
        self.n = 0
        self.rids = np.empty(0, dtype=np.int64)
        self.seats = np.empty(0, dtype=np.int64)
        self.detour = np.empty(0, dtype=np.float64)

    def _grow(self) -> None:
        cap = max(16, 2 * len(self.rids))
        for name in ("rids", "seats", "detour"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)

    def put(self, rid: int, seats: int, detour_limit_m: float) -> None:
        slot = self.slots.get(rid)
        if slot is None:
            if self.n == len(self.rids):
                self._grow()
            slot = self.n
            self.slots[rid] = slot
            self.rids[slot] = rid
            self.n += 1
        self.seats[slot] = seats
        self.detour[slot] = detour_limit_m

    def drop(self, rid: int) -> None:
        slot = self.slots.pop(rid, None)
        if slot is None:
            return
        last = self.n - 1
        if slot != last:
            moved = int(self.rids[last])
            self.rids[slot] = moved
            self.seats[slot] = self.seats[last]
            self.detour[slot] = self.detour[last]
            self.slots[moved] = slot
        self.n = last


class FlatSearchIndex:
    """The flat search core: per-cluster slabs + global budget columns.

    Strictly mirrors ``ClusterRideIndex`` membership and stored ETAs; the
    feasibility columns mirror each ride's ``RideIndexEntry`` as of the
    last (re)index or obsolescence sweep.
    """

    def __init__(self, n_clusters: int):
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters!r}")
        self._arena = _RowArena()
        self._slabs = [_ClusterSlab(self._arena) for _c in range(n_clusters)]
        #: ride id -> clusters currently holding a row for it.
        self._ride_clusters: Dict[int, List[int]] = {}
        #: ride id -> the storage row of each of those rows, aligned with
        #: ``_ride_clusters``: the ride's row handles.  An ``array("i")``
        #: (4-byte C ints): a numpy array's header alone is 112 bytes, and
        #: a handle is read and patched one element at a time.
        self._ride_rows: Dict[int, array] = {}
        self._budget = _BudgetStore()

    # ------------------------------------------------------------------
    # Mutation seams (mirroring the ClusterRideIndex maintenance points)
    # ------------------------------------------------------------------
    def reindex_ride(
        self,
        ride: "Ride",
        entry: "RideIndexEntry",
        etas: Mapping[int, float],
    ) -> None:
        """(Re)build one ride's rows from its entry + the stored ETA map.

        ``etas`` is exactly what the caller installed into the cluster
        index (entry ETAs on index, snapshotted ETAs on restore), keeping
        the two indexes in lockstep by construction.
        """
        ride_id = ride.ride_id
        old = self._ride_clusters.get(ride_id)
        if old is not None:
            self._remove_rows(old, self._ride_rows[ride_id])
        slabs = self._slabs
        clusters: List[int] = []
        rows: List[int] = []
        for cluster_id, fvals, ivals in _feasibility_rows(entry, etas.items()):
            rows.append(slabs[cluster_id].append(ride_id, fvals, ivals))
            clusters.append(cluster_id)
        self._ride_clusters[ride_id] = clusters
        self._ride_rows[ride_id] = array("i", rows)
        self._budget.put(ride_id, ride.seats_available, ride.detour_limit_m)

    def drop_ride(self, ride_id: int) -> None:
        """Remove every trace of a ride (cancel / complete / unindex)."""
        clusters = self._ride_clusters.pop(ride_id, None)
        if clusters is not None:
            self._remove_rows(clusters, self._ride_rows.pop(ride_id))
        self._budget.drop(ride_id)

    def _remove_rows(self, clusters: List[int], rows: Iterable[int]) -> None:
        """Swap-remove one ride's row ``rows[i]`` from slab ``clusters[i]``,
        patching the handle of each other ride whose row moved."""
        slabs = self._slabs
        ride_clusters = self._ride_clusters
        ride_rows = self._ride_rows
        for cluster_id, row in zip(clusters, rows):
            moved = slabs[cluster_id].remove_row(row)
            if moved is not None:
                ride_rows[moved][ride_clusters[moved].index(cluster_id)] = row

    def refresh_supports(
        self, ride_id: int, entry: "RideIndexEntry", shrunk: Iterable[int]
    ) -> None:
        """Re-derive rows after obsolescence shrank the entry's supports.

        Clusters no longer reachable lose their row (the legacy index
        removed them too).  Of the survivors, only the ``shrunk`` clusters —
        those that lost a crossed visit's support — can have moved their
        precomputed segment choice, and only its pickup half: every crossed
        visit is due no later than every surviving one, so the latest
        supporting visit (the drop-off's) survives, while the earliest
        becomes the first surviving support in route order.  They keep
        their stored ETA and detour estimate.  Every other row is already
        what a rewrite would produce.
        """
        clusters = self._ride_clusters.get(ride_id)
        if clusters is None:
            return
        rows = self._ride_rows[ride_id]
        ids = entry.reach_i[:, R_CLUSTER].tolist()
        reachable = set(ids)
        if not reachable.issuperset(clusters):
            gone = [i for i, c in enumerate(clusters) if c not in reachable]
            self._remove_rows([clusters[i] for i in gone], [rows[i] for i in gone])
            for i in reversed(gone):
                del clusters[i], rows[i]
        # A ride's rows are installed in its entry's row order, and both
        # drop the same rows keeping the order of the rest, so the k-th row
        # of the entry is normally the k-th handle.  Rows restored from a
        # snapshot may be a subset: then each is looked up.
        aligned = clusters == ids
        slabs = self._slabs
        for cluster_id, k, pickup in _pickup_columns(entry, ids, shrunk):
            if not aligned:
                try:
                    k = clusters.index(cluster_id)
                except ValueError:  # no row here for this cluster
                    continue
            slabs[cluster_id].update_pickup(rows[k], pickup)

    def refresh_budget(self, ride: "Ride") -> None:
        """Refresh seats/detour columns without touching the rows."""
        if ride.ride_id in self._budget.slots:
            self._budget.put(
                ride.ride_id, ride.seats_available, ride.detour_limit_m
            )

    # ------------------------------------------------------------------
    # Queries (the search hot path)
    # ------------------------------------------------------------------
    def window(
        self, cluster_id: int, start_s: float, end_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(global rows, ETAs) of one cluster's potential rides in the ETA
        window, in ETA order."""
        return self._slabs[cluster_id].window(start_s, end_s)

    def slab(self, cluster_id: int) -> _ClusterSlab:
        """The cluster's slab with its sorted views rebuilt (probe-ready)."""
        slab = self._slabs[cluster_id]
        slab.rebuild()
        return slab

    def row_of(self, cluster_id: int, ride_id: int) -> Optional[int]:
        """Storage row of a ride's row in a cluster's slab (None if none)."""
        clusters = self._ride_clusters.get(ride_id)
        if clusters is None or cluster_id not in clusters:
            return None
        return self._ride_rows[ride_id][clusters.index(cluster_id)]

    def eta(self, cluster_id: int, ride_id: int) -> Optional[float]:
        """Stored ETA of a ride at a cluster (mirror of the legacy query)."""
        row = self.row_of(cluster_id, ride_id)
        return None if row is None else self._slabs[cluster_id].fdata.item(row, F_ETA)

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def total_rows(self) -> int:
        return sum(slab.n for slab in self._slabs)

    def stats(self) -> Dict[str, int]:
        return {
            "rows": self.total_rows(),
            "rides": len(self._ride_clusters),
            # Regions double and dead ones wait for the next regrow: the
            # gap to ``rows`` is the relocation slack.
            "arena_capacity": len(self._arena.rids),
        }

    def divergences(self, engine: "XAREngine") -> List[Tuple[Optional[int], str]]:
        """Every way this mirror disagrees with the authoritative state.

        Compares row membership + ETAs against ``ClusterRideIndex`` and the
        budget columns against the live rides.  Empty == strict mirror.
        """
        problems: List[Tuple[Optional[int], str]] = []
        cluster_index = engine.cluster_index
        seen = 0
        for ride_id, clusters in self._ride_clusters.items():
            for cluster_id, row in zip(clusters, self._ride_rows[ride_id]):
                seen += 1
                expected = cluster_index.eta(cluster_id, ride_id)
                actual = self._slabs[cluster_id].fdata.item(row, F_ETA)
                if expected is None:
                    problems.append((
                        ride_id,
                        f"flat row (cluster {cluster_id}, ride {ride_id}) "
                        f"missing from the cluster index",
                    ))
                elif actual != expected:
                    problems.append((
                        ride_id,
                        f"flat ETA {actual} != cluster-index ETA {expected} "
                        f"at (cluster {cluster_id}, ride {ride_id})",
                    ))
        total = cluster_index.total_entries()
        if seen != total:
            for cluster_id in range(cluster_index.n_clusters):
                for potential in cluster_index.all_rides(cluster_id):
                    if self.eta(cluster_id, potential.ride_id) is None:
                        problems.append((
                            potential.ride_id,
                            f"cluster-index row (cluster {cluster_id}, ride "
                            f"{potential.ride_id}) missing from the flat index",
                        ))
        for ride_id in self._ride_clusters:
            slot = self._budget.slots.get(ride_id)
            ride = engine.rides.get(ride_id)
            if slot is None:
                problems.append((ride_id, f"ride {ride_id} has no budget row"))
                continue
            if ride is None:
                continue  # dead-ride rows are the audit's ghost checks' job
            if int(self._budget.seats[slot]) != ride.seats_available:
                problems.append((
                    ride_id,
                    f"flat seats {int(self._budget.seats[slot])} != live "
                    f"{ride.seats_available} for ride {ride_id}",
                ))
            if float(self._budget.detour[slot]) != ride.detour_limit_m:
                problems.append((
                    ride_id,
                    f"flat detour budget {float(self._budget.detour[slot])!r} "
                    f"!= live {ride.detour_limit_m!r} for ride {ride_id}",
                ))
        return problems

    def check_consistency(self, engine: "XAREngine") -> None:
        """Assert the mirror is exact (test/debug hook)."""
        problems = self.divergences(engine)
        if problems:
            details = "; ".join(detail for _rid, detail in problems[:10])
            raise AssertionError(
                f"flat index diverged in {len(problems)} place(s): {details}"
            )


# ----------------------------------------------------------------------
# The flat search path (dispatched to by repro.core.search.search_rides)
# ----------------------------------------------------------------------
def flat_search_rides(
    engines: Sequence["XAREngine"],
    request,
    k: Optional[int],
    span,
    best: Optional[List[Optional[float]]] = None,
) -> list:
    """Two-step XAR search over the flat cores of ``engines`` — identical
    results (values and rank order) to ``repro.core.search._search_legacy``
    on one engine, and to the k-way merge of each engine's own top-``k`` on
    several.

    Several engines are the shards of one service: one region, disjoint
    ride-id lanes.  The request side (snap) runs once; cluster_lookup and
    candidate_scan run per engine, on its own arena rows; feasibility, the
    top-``k`` cut and the build run once over the union.  Ride ids are
    unique across the engines, so the rank key stays a total order and the
    union's top ``k`` is exactly what merging the per-engine lists gives.
    ``best``, when given, holds one entry per engine, None on entry: an
    engine with a feasible match gets the detour estimate of its
    best-ranked one — the first match its own search would have returned
    (none at all when ``k`` is 0).

    Same five stages, each entered exactly once per search.  Arrays here are
    tens to hundreds of elements, so the cost is the *number* of numpy
    calls, not their size: rows travel as global arena ids and every column
    is gathered once, after the cheap checks have thinned the candidates.

    * **snap** — both ends' walkable-cluster lists, each cut to the prefix
      whose options pass the final walk check against the other end's
      nearest option (``src.walk_m[i] + dst.walk_m[0] <= threshold``, the
      filter's own float expression; the destination side symmetric).
      Options ascend by walk and IEEE addition is monotone, so no dropped
      option could pass with any partner: the cut spares their window
      lookups and probes and changes no answer.  An empty cut ends the
      search.
    * **cluster_lookup** — per source cluster, two binary searches over the
      ETA-sorted view and a slice of its global rows.
    * **candidate_scan** — R1 = first occurrence per ride id over the
      option-ordered concatenation, by one stable argsort (options ascend
      by walk distance, so first occurrence == the legacy best-walk winner
      under strict ``<``); the destination pass probes R1 against each
      destination slab's rid-sorted view and records only the hit's global
      row and option index.
    * **feasibility_filter** — order/cluster/walk checks on R1 ∩ R2, seats
      and detour budget read live, then one gather of the survivors'
      feasibility columns (over several engines, each engine's R1 rows are
      gathered from its own arena first, so that the checks run once over
      the union); the landmark-level splice estimate is computed
      with the same float64 operation order as the scalar code, so results
      are bit-identical.  The rare segment-order retry (latest drop-off
      segment before earliest pickup segment) falls back to the exact
      legacy scalar path.
    * **rank_merge** — ``lexsort`` on the scalar key columns, top-k cut,
      and only the survivors are converted to Python and built.
    """
    with span.stage("snap"):
        sides = engines[0].region.walk_budget_columns(
            request.source, request.destination, request.walk_threshold_m
        )
    if sides is None:
        return []
    src, dst = sides

    window_start = request.window_start_s
    with span.stage("cluster_lookup"):
        window_end = request.window_end_s
        lookups = [
            _lookup(engine.flat_index, src.options, window_start, window_end)
            for engine in engines
        ]

    with span.stage("candidate_scan"):
        scans = [
            (e, _scan(engines[e].flat_index, parts, counts, dst.options,
                      window_start))
            for e, (parts, counts) in enumerate(lookups)
            if any(counts)
        ]
    if not scans:
        return []

    with span.stage("feasibility_filter"):
        feasible = _feasible(engines, request, src, dst, scans)

    with span.stage("rank_merge"):
        return _rank(request.request_id, src.options, dst.options, k,
                     feasible, best)


def _lookup(flat, options, window_start, window_end):
    """One engine's step 1: per source option, the global rows of its
    cluster's rides in the ETA window, and their counts."""
    parts = [
        flat.window(option.cluster_id, window_start, window_end)[0]
        for option in options
    ]
    return parts, list(map(len, parts))


def _scan(flat, parts, counts, dst_options, window_start):
    """R1 and, per R1 ride, its first destination hit: ``(ride ids, source
    rows, source option, destination rows, destination option)`` — rows are
    global, and a ride outside R2 has its source row for a destination."""
    arena = flat._arena
    all_rows = np.concatenate(parts)
    all_rids = arena.rids[all_rows]
    # First occurrence per ride id in option order == smallest walk
    # (walkable_clusters sorts options ascending by walk_m and the legacy
    # reduction only replaces on strictly smaller walk).  The options are
    # the snap stage's walk-budget prefix: a ride first seen past it walks
    # too far with any drop-off, so it is left out here rather than
    # rejected by the walk check, and every ride first seen inside it keeps
    # the same first occurrence.
    order = all_rids.argsort(kind="stable")
    sorted_rids = all_rids[order]
    is_first = np.empty(len(order), dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_rids[1:], sorted_rids[:-1], out=is_first[1:])
    firsts = is_first.nonzero()[0]
    src_rids = sorted_rids[firsts]
    picked = order[firsts]  # positions in the concatenation
    src_row = all_rows[picked]
    src_opt = np.arange(len(counts)).repeat(counts)[picked]

    # Destination pass: only R1 rides can survive the intersection, so probe
    # R1 against each destination slab's rid-sorted view.  A ride keeps its
    # first hit in option order (the smallest walk): options are probed last
    # to first, each overwriting what a later one found.  A ride nothing hits
    # (its first hit, if any, past the walk-budget prefix) keeps its source
    # row, which fails "pickup strictly before drop-off".
    eta = arena.eta
    dst_row = src_row.copy()
    dst_opt = np.zeros(len(src_rids), dtype=np.intp)
    for oi in reversed(range(len(dst_options))):
        slab = flat.slab(dst_options[oi].cluster_id)
        if slab.n == 0:
            continue
        # mode="clip" sends a past-the-end position to the last row, which
        # the ride-id comparison then rejects.
        rows = slab.rid_rows.take(slab.rid_sorted.searchsorted(src_rids), mode="clip")
        hit = arena.rids[rows] == src_rids
        hit &= eta[rows] >= window_start
        np.putmask(dst_row, hit, rows)
        np.putmask(dst_opt, hit, oi)
    return src_rids, src_row, src_opt, dst_row, dst_opt


def _survivors(e, engine, request, src, dst, src_rids, src_row, src_opt,
               dst_row, dst_opt):
    """Engine ``e``'s R1 ∩ R2 after the order, cluster, walk, seat and
    budget checks, and the one gather of its survivors' precomputed
    columns: ``(ride ids, source option, destination option, total walk,
    Fs, Fd, Is, Id, detour budgets, e)``, or None when nothing survives."""
    arena = engine.flat_index._arena
    eta = arena.eta
    walk = src.walk_m[src_opt] + dst.walk_m[dst_opt]
    keep = eta[src_row] < eta[dst_row]          # pickup strictly before drop-off
    keep &= src.cluster_id[src_opt] != dst.cluster_id[dst_opt]  # a ride leg exists
    keep &= walk <= request.walk_threshold_m

    # Seats and detour budget read *live* from the ride objects, exactly as
    # the legacy filter does — R1 ∩ R2 is small, so this Python loop is off
    # the hot path, and a seat poked to zero between search calls (without
    # going through booking's reindex seam) is honoured immediately.
    cand = keep.nonzero()[0]
    rides = engine.rides
    entries = engine.ride_entries
    live = [
        (t, ride.detour_limit_m)
        for t, rid in zip(cand.tolist(), src_rids[cand].tolist())
        if (ride := rides.get(rid)) is not None
        and rid in entries
        and ride.seats_available >= 1
    ]
    if not live:
        return None
    sel, limits = zip(*live)

    # The one gather of the precomputed per-(cluster, ride) columns.
    sel = np.array(sel, dtype=np.intp)
    rs, rd = src_row[sel], dst_row[sel]
    return (
        src_rids[sel], src_opt[sel], dst_opt[sel], walk[sel],
        arena.F.take(rs, axis=0), arena.F.take(rd, axis=0),
        arena.I.take(rs, axis=0), arena.I.take(rd, axis=0), limits, e,
    )


def _gather(arena: _RowArena, src_row, dst_row):
    """The float and int columns of an engine's source and destination
    rows: ``(Fs, Fd, Is, Id)``."""
    return (
        arena.F.take(src_row, axis=0), arena.F.take(dst_row, axis=0),
        arena.I.take(src_row, axis=0), arena.I.take(dst_row, axis=0),
    )


def _union_survivors(engines, request, src, dst, scans):
    """:func:`_survivors` over several engines' scans as one set of rows.

    Each engine's R1 rows bring their precomputed columns from its own arena
    first — the one gather per engine — so the checks, the live loop and
    the selection run once, over the union.  The last element is the
    position in ``engines`` of each survivor's engine."""
    parts = [
        (e, src_rids, src_opt, dst_opt,
         *_gather(engines[e].flat_index._arena, src_row, dst_row))
        for e, (src_rids, src_row, src_opt, dst_row, dst_opt) in scans
    ]
    columns = list(zip(*parts))
    rids, so, do, Fs, Fd, Is, Id = map(np.concatenate, columns[1:])
    owners = np.array(columns[0]).repeat(list(map(len, columns[1])))
    walk = src.walk_m[so] + dst.walk_m[do]
    keep = Fs[:, F_ETA] < Fd[:, F_ETA]
    keep &= src.cluster_id[so] != dst.cluster_id[do]
    keep &= walk <= request.walk_threshold_m
    cand = keep.nonzero()[0]
    books = [(engine.rides, engine.ride_entries) for engine in engines]
    live = [
        (t, ride.detour_limit_m)
        for t, rid, (rides, entries) in zip(
            cand.tolist(), rids[cand].tolist(),
            map(books.__getitem__, owners[cand].tolist()),
        )
        if (ride := rides.get(rid)) is not None
        and rid in entries
        and ride.seats_available >= 1
    ]
    if not live:
        return None
    sel, limits = zip(*live)
    sel = np.array(sel, dtype=np.intp)
    return (
        rids[sel], so[sel], do[sel], walk[sel],
        Fs[sel], Fd[sel], Is[sel], Id[sel], limits, owners[sel],
    )


def _feasible(engines, request, src, dst, scans):
    """Feasibility over R1 ∩ R2 of every scanned engine.  Returns the
    columns ``_rank`` sorts and builds from — ``(ride ids, source option,
    destination option, pickup ETA, drop-off ETA, total walk, detour,
    feasible mask, fallbacks, owners)`` — or None when nothing survives.
    ``owners`` is the position in ``engines`` of each row's engine: one int
    when a single engine was scanned, else an array; a fallback is ``(total
    walk, match, owner)``."""
    (e, scan), *more = scans
    survivors = (
        _union_survivors(engines, request, src, dst, scans) if more
        else _survivors(e, engines[e], request, src, dst, *scan)
    )
    if survivors is None:
        return None
    rids, so, do, walk, Fs, Fd, Is, Id, limits, owners = survivors
    # The int columns are stored int32; widen the gathered rows once, so
    # the landmark gathers below index with intp and cast nothing.
    Is = Is.astype(np.intp)
    Id = Id.astype(np.intp)
    seg_e, seg_l = Is[:, I_SEG_E], Id[:, I_SEG_L]
    sp_a, sp_b, sd_a, sd_b = Is[:, I_SP_A], Is[:, I_SP_B], Id[:, I_SD_A], Id[:, I_SD_B]
    sp_len, sd_len = Fs[:, F_SP_LEN], Fd[:, F_SD_LEN]

    # "None" is -1, the only negative value, and an OR of ints is negative
    # iff one of them is.
    valid = (seg_e | seg_l) >= 0                 # segment_for found a segment
    coarse = Fs[:, F_DETOUR] + Fd[:, F_DETOUR]
    # Rare: the latest drop-off segment precedes the earliest pickup
    # segment; those rows retry with at_least through the exact scalar path.
    fallback = valid & (seg_l < seg_e)

    # Landmark-level splice estimate — same float64 operation order as
    # _splice_estimate, so the values are bit-identical.
    lm_ok = (sp_a | sp_b | sd_a | sd_b) >= 0
    # Clamp unknown landmark ids to 0 BEFORE the gather (negative indices
    # would silently wrap); lm_ok discards those rows afterwards.
    ia = np.maximum(sp_a, 0)
    ib = np.maximum(sp_b, 0)
    ic = np.maximum(sd_a, 0)
    ie = np.maximum(sd_b, 0)
    p = src.landmark_id[so]
    d = dst.landmark_id[do]
    region = engines[0].region
    D = region.landmark_matrix.values
    to_pickup = D[ia, p]
    est = np.where(
        seg_e == seg_l,
        to_pickup + D[p, d] + D[d, ib] - sp_len,
        (to_pickup + D[p, ib] - sp_len) + (D[ic, d] + D[d, ie] - sd_len),
    )
    lm_ok &= np.isfinite(est)
    detour = np.where(lm_ok, np.maximum(0.0, est), coarse)
    final = valid & ~fallback & (detour <= np.array(limits, dtype=np.float64))

    e_src, e_dst = Fs[:, F_ETA], Fd[:, F_ETA]
    fallbacks = []
    for j in fallback.nonzero()[0].tolist():
        # Segment-order retries go through the exact legacy scalar path;
        # they are rare, so building them eagerly is fine.
        from ..core.search import _build_match, _splice_estimate

        owner = owners if not more else int(owners[j])
        engine = engines[owner]
        ride_id = int(rids[j])
        entry = engine.ride_entries[ride_id]
        o_s = src.options[so[j]]
        o_d = dst.options[do[j]]
        segment_pickup = int(seg_e[j])
        segment_dropoff = entry.segment_for(
            o_d.cluster_id, earliest=False, at_least=segment_pickup
        )
        if segment_dropoff is None:
            continue
        det = _splice_estimate(
            region, entry, segment_pickup, segment_dropoff,
            o_s.landmark_id, o_d.landmark_id,
        )
        if det is None:
            det = float(coarse[j])
        if det > engine.rides[ride_id].detour_limit_m:
            continue
        match = _build_match(
            ride_id, request.request_id,
            o_s.cluster_id, o_s.landmark_id, o_s.walk_m,
            o_d.cluster_id, o_d.landmark_id, o_d.walk_m,
            float(e_src[j]), float(e_dst[j]), det,
        )
        fallbacks.append((float(walk[j]), match, owner))
    return rids, so, do, e_src, e_dst, walk, detour, final, fallbacks, owners


def _rank(request_id, src_options, dst_options, k, feasible, best) -> list:
    """Sort by ``(total_walk_m, eta_pickup_s, ride_id)``, cut to ``k`` and
    build the survivors.  Each ride id appears at most once (R1 is deduped
    by ride, and engines hold disjoint ride-id lanes), so the key is a
    total order and ``np.lexsort`` agrees exactly with the legacy tuple
    sort.  ``best`` as in :func:`flat_search_rides`."""
    from ..core.search import _build_match

    if feasible is None:
        return []
    rids, so, do, e_src, e_dst, walk, detour, final, fallbacks, owners = feasible
    vec = final.nonzero()[0]
    n_vec = len(vec)
    w_keys, e_keys, r_keys = walk[vec], e_src[vec], rids[vec]
    if fallbacks:
        w_keys = np.append(w_keys, [w for w, _match, _owner in fallbacks])
        e_keys = np.append(e_keys, [m.eta_pickup_s for _w, m, _owner in fallbacks])
        r_keys = np.append(r_keys, [m.ride_id for _w, m, _owner in fallbacks])
    order = np.lexsort((r_keys, e_keys, w_keys))
    if best is not None and k != 0 and len(order):
        _note_best(best, order, vec, detour, owners, fallbacks)
    order = order[:k]

    # Batch-convert the <= k survivors to Python scalars once (C speed) so
    # the build loop touches no numpy scalars; _build_match fills the
    # instance dict directly instead of paying the frozen-dataclass
    # per-field setattr.
    top = vec[order[order < n_vec]] if fallbacks else vec[order]
    built = [
        _build_match(
            ride_id, request_id,
            o_s.cluster_id, o_s.landmark_id, o_s.walk_m,
            o_d.cluster_id, o_d.landmark_id, o_d.walk_m,
            eta_pickup, eta_dropoff, det,
        )
        for ride_id, o_s, o_d, eta_pickup, eta_dropoff, det in zip(
            rids[top].tolist(),
            map(src_options.__getitem__, so[top].tolist()),
            map(dst_options.__getitem__, do[top].tolist()),
            e_src[top].tolist(), e_dst[top].tolist(), detour[top].tolist(),
        )
    ]
    if not fallbacks:
        return built
    vector = iter(built)
    return [
        fallbacks[t - n_vec][1] if t >= n_vec else next(vector)
        for t in order.tolist()
    ]


def _note_best(best, order, vec, detour, owners, fallbacks) -> None:
    """Fill ``best`` with each engine's first detour in rank ``order``, which
    ranks the vector rows ``vec`` and then the ``fallbacks``."""
    ranked = detour[vec]
    if fallbacks:
        ranked = np.append(ranked, [m.detour_estimate_m for _w, m, _o in fallbacks])
    if isinstance(owners, int):
        best[owners] = ranked[order[0]].item()
        return
    owner = owners[vec]
    if fallbacks:
        owner = np.append(owner, [o for _w, _m, o in fallbacks])
    ranked = ranked.tolist()
    left = len(best)
    for t, e in zip(order.tolist(), owner[order].tolist()):
        if best[e] is None:
            best[e] = ranked[t]
            left -= 1
            if not left:
                break
