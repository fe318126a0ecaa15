"""Flat struct-of-arrays search core with a spatio-temporal candidate hash.

The legacy search path walks per-ride Python objects: ``SortedKeyList`` →
``PotentialRide`` dataclasses → ``RideIndexEntry`` dicts → ``segment_for``
scans, paying interpreter overhead on every candidate.  This module stores
the same information as parallel primitive arrays so the hot stages become
C-speed numpy kernels over contiguous slices:

* **Per-cluster slab** — one row per (cluster, ride): ride id, stored ETA,
  cluster-level detour estimate, and the *precomputed feasibility bounds*
  the filter stage needs (pickup/drop-off segment choice plus that
  segment's bounding landmarks and on-route length, i.e. everything
  ``segment_for`` + ``_splice_estimate`` would otherwise recompute per
  candidate per search).
* **Spatio-temporal hash** — per slab, buckets keyed by (cluster cell,
  ETA time slice ``floor(eta / slice_s)``).  A window query shortlists the
  buckets overlapping the departure window in O(1)-ish hash/bisect work and
  refines only the two edge buckets to exact ETA bounds; interior buckets
  are in-window by construction.  This is the candidate-generation scheme
  of *When Hashing Met Matching* adapted to the XAR index.
* **Budget columns** — one global row per ride: seats available and the
  remaining detour budget, refreshed at every (re)index point, so the
  feasibility filter reads two gathers instead of 2×N attribute lookups.

Row storage is append + swap-remove (O(1) mutation); the sorted views the
queries need (by ride id for the R1∩R2 probe, by ETA for the window scan,
plus the bucket ranges) are rebuilt lazily per slab on first query after a
mutation — a create/book/track burst dirties slabs for free and the next
search pays one ``argsort`` per *touched* cluster.

The index is a strict mirror: every mutation flows through the same engine
seams that maintain ``ClusterRideIndex`` (index / unindex / reindex /
obsolescence / restore / purge), ``check_consistency``/``divergences``
compare the two, and the invariant auditor heals any drift by reindexing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

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

_eta = attrgetter("eta_s")

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
    ``entry.segment_for(cluster, earliest=True|False)`` scans
    ``pass_through`` for, twice per row.  Here the scan happens once per
    *entry*: the visits are ranked by ETA ascending and descending (stable,
    so equal ETAs keep route order — ``min``/``max``'s first-minimal /
    first-maximal rule), each pass-through cluster records its best rank in
    either order, and a row only takes the minimum over its supports.
    """
    visits = entry.pass_through
    n_visits = len(visits)

    def ranked(latest_first: bool):
        """(cluster -> best rank of any of its visits, rank -> segment); a
        support without a visit ranks past the end ("no segment")."""
        best: Dict[int, int] = defaultdict(lambda: n_visits)
        segment_of_rank: List[int] = []
        for rank, visit in enumerate(sorted(visits, key=_eta, reverse=latest_first)):
            best.setdefault(visit.cluster_id, rank)
            segment_of_rank.append(visit.segment_index)
        return best.__getitem__, segment_of_rank

    earliest_rank, earliest_segment = ranked(latest_first=False)
    latest_rank, latest_segment = ranked(latest_first=True)
    segments = [
        (meta.start_landmark, meta.end_landmark, meta.length_m)
        for meta in entry.segments
    ]
    n_segments = len(segments)
    reachable = entry.reachable
    for cluster_id, eta_s in etas:
        info = reachable.get(cluster_id)
        detour = float("inf")
        seg_e = seg_l = -1
        pickup = dropoff = _NO_SEGMENT
        if info is not None:
            detour = info.detour_estimate_m
            supports = info.supports
            rank = min(map(earliest_rank, supports), default=n_visits)
            if rank < n_visits:
                seg_e = earliest_segment[rank]
                seg_l = latest_segment[min(map(latest_rank, supports))]
                if 0 <= seg_e < n_segments:
                    pickup = segments[seg_e]
                if 0 <= seg_l < n_segments:
                    dropoff = segments[seg_l]
        yield (
            cluster_id,
            (eta_s, detour, pickup[2], dropoff[2]),
            (seg_e, seg_l, pickup[0], pickup[1], dropoff[0], dropoff[1]),
        )


class _ClusterSlab:
    """One cluster's rows: unsorted SoA storage + lazy sorted views."""

    __slots__ = (
        "rows", "n", "rids", "fdata", "idata", "dirty",
        "rid_order", "rid_sorted", "eta_order", "eta_sorted", "erids",
        "slice_keys", "slice_starts",
    )

    def __init__(self):
        #: ride id -> storage row (live rows are ``[0, n)``).
        self.rows: Dict[int, int] = {}
        self.n = 0
        self.rids = np.empty(0, dtype=np.int64)
        # Column-major: queries gather whole columns by row index, so each
        # column must be contiguous (row writes touch a handful of cells).
        self.fdata = np.empty((0, _N_F), dtype=np.float64, order="F")
        self.idata = np.empty((0, _N_I), dtype=np.int64, order="F")
        self.dirty = True
        self.rid_order = _EMPTY_IDX
        self.rid_sorted = _EMPTY_I64
        self.eta_order = _EMPTY_IDX
        self.eta_sorted = _EMPTY_F64
        self.erids = _EMPTY_I64
        self.slice_keys = _EMPTY_I64
        self.slice_starts = np.zeros(1, dtype=np.int64)

    # -- mutation -------------------------------------------------------
    def _grow(self) -> None:
        cap = max(8, 2 * len(self.rids))
        rids = np.empty(cap, dtype=np.int64)
        fdata = np.empty((cap, _N_F), dtype=np.float64, order="F")
        idata = np.empty((cap, _N_I), dtype=np.int64, order="F")
        rids[: self.n] = self.rids[: self.n]
        fdata[: self.n] = self.fdata[: self.n]
        idata[: self.n] = self.idata[: self.n]
        self.rids, self.fdata, self.idata = rids, fdata, idata

    def put(self, rid: int, fvals, ivals) -> None:
        row = self.rows.get(rid)
        if row is None:
            if self.n == len(self.rids):
                self._grow()
            row = self.n
            self.rows[rid] = row
            self.rids[row] = rid
            self.n += 1
            self.dirty = True
        elif self.fdata[row, F_ETA] != fvals[0]:
            self.dirty = True  # the ETA views/buckets must re-sort
        self.fdata[row] = fvals
        self.idata[row] = ivals

    def update_feasibility(self, rid: int, fvals, ivals) -> bool:
        """Refresh segment/splice columns only (ETA + detour untouched).

        Used after obsolescence shrank a surviving cluster's support set:
        the stored ETA and detour estimate stay (the legacy index keeps
        them too), but the segment choice can move.  Never dirties the
        sorted views — row identity and ETA are unchanged.
        """
        row = self.rows.get(rid)
        if row is None:
            return False
        self.fdata[row, F_SP_LEN] = fvals[2]
        self.fdata[row, F_SD_LEN] = fvals[3]
        self.idata[row] = ivals
        return True

    def remove(self, rid: int) -> bool:
        row = self.rows.pop(rid, None)
        if row is None:
            return False
        last = self.n - 1
        if row != last:
            moved = int(self.rids[last])
            self.rids[row] = moved
            self.fdata[row] = self.fdata[last]
            self.idata[row] = self.idata[last]
            self.rows[moved] = row
        self.n = last
        self.dirty = True
        return True

    # -- queries --------------------------------------------------------
    def rebuild(self, slice_s: float) -> None:
        if not self.dirty:
            return
        n = self.n
        rids = self.rids[:n]
        self.rid_order = np.argsort(rids, kind="stable")
        self.rid_sorted = rids[self.rid_order]
        etas = self.fdata[:n, F_ETA]
        self.eta_order = np.argsort(etas, kind="stable")
        self.eta_sorted = etas[self.eta_order]
        self.erids = rids[self.eta_order]
        # The spatio-temporal hash: bucket b holds rows with
        # floor(eta / slice_s) == b, stored as contiguous ranges of the
        # ETA-sorted view (ETA order == bucket order).
        if n:
            slices = np.floor_divide(self.eta_sorted, slice_s).astype(np.int64)
            keys, starts = np.unique(slices, return_index=True)
            self.slice_keys = keys
            self.slice_starts = np.append(starts, n).astype(np.int64)
        else:
            self.slice_keys = _EMPTY_I64
            self.slice_starts = np.zeros(1, dtype=np.int64)
        self.dirty = False

    def window(
        self, start_s: float, end_s: float, slice_s: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ride ids, ETAs, storage rows) with ``start_s <= eta <= end_s``.

        Buckets overlapping ``[start_s, end_s]`` are shortlisted via the
        slice hash; only the two edge buckets need exact ETA refinement.
        Views into the ETA-sorted arrays — zero copies.
        """
        self.rebuild(slice_s)
        n = self.n
        if n == 0 or end_s < start_s:
            return _EMPTY_I64, _EMPTY_F64, _EMPTY_IDX
        lo_key = math.floor(start_s / slice_s)
        ki = int(np.searchsorted(self.slice_keys, lo_key, side="left"))
        lo = int(self.slice_starts[ki])
        if end_s == float("inf"):
            hi = n
        else:
            hi_key = math.floor(end_s / slice_s)
            kj = int(np.searchsorted(self.slice_keys, hi_key, side="right"))
            hi = int(self.slice_starts[kj])
        # Exact bounds within the edge buckets (interior buckets are fully
        # inside the window by construction of the slice keys).
        lo += int(np.searchsorted(self.eta_sorted[lo:hi], start_s, side="left"))
        if end_s != float("inf"):
            hi = lo + int(
                np.searchsorted(self.eta_sorted[lo:hi], end_s, side="right")
            )
        return self.erids[lo:hi], self.eta_sorted[lo:hi], self.eta_order[lo:hi]


class _BudgetStore:
    """Global per-ride columns: seats available + remaining detour budget."""

    __slots__ = ("slots", "n", "rids", "seats", "detour", "dirty",
                 "order", "rid_sorted")

    def __init__(self):
        self.slots: Dict[int, int] = {}
        self.n = 0
        self.rids = np.empty(0, dtype=np.int64)
        self.seats = np.empty(0, dtype=np.int64)
        self.detour = np.empty(0, dtype=np.float64)
        self.dirty = True
        self.order = _EMPTY_IDX
        self.rid_sorted = _EMPTY_I64

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
            self.dirty = True
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
        self.dirty = True

    def rebuild(self) -> None:
        if not self.dirty:
            return
        rids = self.rids[: self.n]
        self.order = np.argsort(rids, kind="stable")
        self.rid_sorted = rids[self.order]
        self.dirty = False


class FlatSearchIndex:
    """The flat search core: per-cluster slabs + global budget columns.

    Strictly mirrors ``ClusterRideIndex`` membership and stored ETAs; the
    feasibility columns mirror each ride's ``RideIndexEntry`` as of the
    last (re)index or obsolescence sweep.
    """

    #: Default ETA slice width of the spatio-temporal hash (seconds).  The
    #: workload's departure windows are O(10 minutes); one-slice windows
    #: touch at most two buckets.
    DEFAULT_SLICE_S = 600.0

    def __init__(self, n_clusters: int, slice_s: float = DEFAULT_SLICE_S):
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters!r}")
        if slice_s <= 0:
            raise ValueError(f"slice_s must be > 0, got {slice_s!r}")
        self.slice_s = float(slice_s)
        self._slabs = [_ClusterSlab() for _c in range(n_clusters)]
        #: ride id -> clusters currently holding a row for it.
        self._ride_clusters: Dict[int, List[int]] = {}
        self._budget = _BudgetStore()

    @property
    def n_clusters(self) -> int:
        return len(self._slabs)

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
            for cluster_id in old:
                self._slabs[cluster_id].remove(ride_id)
        slabs = self._slabs
        clusters: List[int] = []
        for cluster_id, fvals, ivals in _feasibility_rows(entry, etas.items()):
            slabs[cluster_id].put(ride_id, fvals, ivals)
            clusters.append(cluster_id)
        self._ride_clusters[ride_id] = clusters
        self._budget.put(ride_id, ride.seats_available, ride.detour_limit_m)

    def drop_ride(self, ride_id: int) -> None:
        """Remove every trace of a ride (cancel / complete / unindex)."""
        for cluster_id in self._ride_clusters.pop(ride_id, ()):
            self._slabs[cluster_id].remove(ride_id)
        self._budget.drop(ride_id)

    def refresh_supports(
        self, ride_id: int, entry: "RideIndexEntry", shrunk: Iterable[int]
    ) -> None:
        """Re-derive rows after obsolescence shrank the entry's supports.

        Clusters no longer reachable lose their row (the legacy index
        removed them too).  Of the survivors, only the ``shrunk`` clusters —
        those whose support set lost a crossed cluster — can have moved
        their precomputed segment choice, which depends on nothing but the
        support set; they keep their stored ETA and detour estimate and
        refresh the segment columns.  Every other row is already what a
        rewrite would produce.
        """
        clusters = self._ride_clusters.get(ride_id)
        if clusters is None:
            return
        slabs = self._slabs
        reachable = entry.reachable
        kept: List[int] = []
        for cluster_id in clusters:
            if cluster_id in reachable:
                kept.append(cluster_id)
            else:
                slabs[cluster_id].remove(ride_id)
        self._ride_clusters[ride_id] = kept
        # update_feasibility ignores the ETA column, so any placeholder does.
        stale = [(cluster_id, 0.0) for cluster_id in shrunk if cluster_id in reachable]
        for cluster_id, fvals, ivals in _feasibility_rows(entry, stale):
            slabs[cluster_id].update_feasibility(ride_id, fvals, ivals)

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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ride ids, ETAs, rows) of one cluster's potential rides in the
        ETA window — the bucket-hash shortlist plus exact edge refinement."""
        return self._slabs[cluster_id].window(start_s, end_s, self.slice_s)

    def slab(self, cluster_id: int) -> _ClusterSlab:
        """The cluster's slab with its sorted views rebuilt (probe-ready)."""
        slab = self._slabs[cluster_id]
        slab.rebuild(self.slice_s)
        return slab

    def budget_view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rid_sorted, order, seats, detour) for vectorized budget gathers."""
        store = self._budget
        store.rebuild()
        return store.rid_sorted, store.order, store.seats, store.detour

    def eta(self, cluster_id: int, ride_id: int) -> Optional[float]:
        """Stored ETA of a ride at a cluster (mirror of the legacy query)."""
        slab = self._slabs[cluster_id]
        row = slab.rows.get(ride_id)
        return float(slab.fdata[row, F_ETA]) if row is not None else None

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def total_rows(self) -> int:
        return sum(slab.n for slab in self._slabs)

    def stats(self) -> Dict[str, int]:
        return {
            "rows": self.total_rows(),
            "rides": len(self._ride_clusters),
            "buckets": sum(len(s.slice_keys) for s in self._slabs),
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
            for cluster_id in clusters:
                seen += 1
                expected = cluster_index.eta(cluster_id, ride_id)
                actual = self.eta(cluster_id, ride_id)
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
    engine: "XAREngine",
    flat: FlatSearchIndex,
    request,
    k: Optional[int],
    span,
) -> list:
    """Two-step XAR search over the flat core — identical results (values
    and rank order) to ``repro.core.search._search_legacy``.

    Same five stages, each entered exactly once per search; the per-object
    loops become numpy kernels:

    * **cluster_lookup** — per source cluster, the spatio-temporal hash
      shortlists the (cluster, ETA-slice) buckets overlapping the
      departure window; the two edge buckets refine to exact ETA bounds.
      Returns zero-copy views of the ETA-sorted slab.
    * **candidate_scan** — R1 = first-occurrence ``np.unique`` over the
      option-ordered concatenation (options ascend by walk distance, so
      first occurrence == the legacy best-walk winner under strict ``<``);
      the destination pass probes R1 against each destination slab's
      rid-sorted view (one vectorized ``searchsorted`` per cluster).
    * **feasibility_filter** — vectorized seat/walk/order/cluster/detour
      checks over gathered columns; the landmark-level splice estimate is
      computed with the same float64 operation order as the scalar code,
      so results are bit-identical.  The rare segment-order retry
      (latest drop-off segment before earliest pickup segment) falls back
      to the exact legacy scalar path.
    """
    from ..core.search import MatchOption, _build_match, _splice_estimate

    region = engine.region
    with span.stage("snap"):
        source_options = region.walkable_clusters(
            request.source, request.walk_threshold_m
        )
        destination_options = (
            region.walkable_clusters(request.destination, request.walk_threshold_m)
            if source_options
            else []
        )
    if not source_options or not destination_options:
        return []

    window_start = request.window_start_s

    with span.stage("cluster_lookup"):
        gathers = []
        for oi, option in enumerate(source_options):
            rids, etas, rows = flat.window(
                option.cluster_id, window_start, request.window_end_s
            )
            if len(rids):
                gathers.append((oi, rids, etas, rows))

    with span.stage("candidate_scan"):
        n_src = 0
        if gathers:
            all_rids = np.concatenate([g[1] for g in gathers])
            all_etas = np.concatenate([g[2] for g in gathers])
            all_rows = np.concatenate([g[3] for g in gathers])
            all_opts = np.concatenate(
                [np.full(g[1].shape, g[0], dtype=np.intp) for g in gathers]
            )
            # First occurrence per ride id in option order == smallest walk
            # (walkable_clusters sorts options ascending by walk_m and the
            # legacy reduction only replaces on strictly smaller walk).
            src_rids, first = np.unique(all_rids, return_index=True)
            src_eta = all_etas[first]
            src_row = all_rows[first]
            src_opt = all_opts[first]
            n_src = len(src_rids)
        if n_src:
            # Destination pass: only R1 rides can survive the intersection,
            # so probe R1 against each destination slab's rid-sorted view.
            found = np.zeros(n_src, dtype=bool)
            dst_eta = np.zeros(n_src, dtype=np.float64)
            dst_row = np.zeros(n_src, dtype=np.intp)
            dst_opt = np.zeros(n_src, dtype=np.intp)
            for oi, option in enumerate(destination_options):
                if found.all():
                    # Later options can't win: first hit == smallest walk.
                    break
                slab = flat.slab(option.cluster_id)
                if slab.n == 0:
                    continue
                pos = np.searchsorted(slab.rid_sorted, src_rids)
                np.minimum(pos, slab.n - 1, out=pos)
                hit_idx = np.nonzero(slab.rid_sorted[pos] == src_rids)[0]
                if not len(hit_idx):
                    continue
                rows = slab.rid_order[pos[hit_idx]]
                etas = slab.fdata[rows, F_ETA]
                ok = etas >= window_start
                cand = hit_idx[ok]
                fresh = ~found[cand]
                upd = cand[fresh]
                if len(upd):
                    found[upd] = True
                    dst_eta[upd] = etas[ok][fresh]
                    dst_row[upd] = rows[ok][fresh]
                    dst_opt[upd] = oi

    if not n_src:
        return []

    with span.stage("feasibility_filter"):
        matches = _flat_filter(
            engine, flat, request, _build_match, _splice_estimate,
            source_options, destination_options,
            src_rids, src_eta, src_row, src_opt,
            found, dst_eta, dst_row, dst_opt, k,
        )

    with span.stage("rank_merge"):
        # _flat_filter already ranked and cut on scalar key arrays (ride_id
        # is unique per match, so the key is a total order and the lexsort
        # agrees with this tuple sort); re-sorting the survivors is a cheap
        # O(k) pass that keeps the stage contract explicit.
        matches.sort(key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id))
        if k is not None:
            return matches[:k]
        return matches


def _flat_filter(
    engine,
    flat,
    request,
    _build_match,
    _splice_estimate,
    source_options,
    destination_options,
    src_rids,
    src_eta,
    src_row,
    src_opt,
    found,
    dst_eta,
    dst_row,
    dst_opt,
    k,
) -> list:
    """Vectorized R1 ∩ R2 feasibility over the precomputed slab columns.

    Returns the feasible matches already sorted by
    ``(total_walk_m, eta_pickup_s, ride_id)`` and cut to ``k`` — ranking on
    the scalar key arrays means only the surviving ``k`` matches are ever
    constructed.
    """
    region = engine.region
    idx = np.nonzero(found)[0]
    if not len(idx):
        return []
    rids = src_rids[idx]
    e_src = src_eta[idx]
    e_dst = dst_eta[idx]
    so = src_opt[idx]
    do = dst_opt[idx]
    rs = src_row[idx]
    rd = dst_row[idx]

    src_walk = np.array([o.walk_m for o in source_options], dtype=np.float64)
    dst_walk = np.array([o.walk_m for o in destination_options], dtype=np.float64)
    src_cl = np.array([o.cluster_id for o in source_options], dtype=np.int64)
    dst_cl = np.array([o.cluster_id for o in destination_options], dtype=np.int64)

    keep = e_src < e_dst                         # pickup strictly before drop-off
    keep &= src_cl[so] != dst_cl[do]             # an actual ride leg exists
    keep &= (src_walk[so] + dst_walk[do]) <= request.walk_threshold_m

    # Seats and detour budget read *live* from the ride objects, exactly as
    # the legacy filter does — R1 ∩ R2 is small, so this Python loop is off
    # the hot path, and a seat poked to zero between search calls (without
    # going through booking's reindex seam) is honoured immediately.  Rows
    # already dead to the vector checks above skip the dict lookups.
    keep_l = keep.tolist()
    limits_l = [0.0] * len(keep_l)
    rides = engine.rides
    entries = engine.ride_entries
    for t, rid in enumerate(rids.tolist()):
        if not keep_l[t]:
            continue
        ride = rides.get(rid)
        if ride is None or rid not in entries or ride.seats_available < 1:
            keep_l[t] = False
        else:
            limits_l[t] = ride.detour_limit_m
    keep = np.array(keep_l, dtype=bool)
    all_limits = np.array(limits_l, dtype=np.float64)
    if not keep.any():
        return []

    sel = np.nonzero(keep)[0]
    rids, e_src, e_dst = rids[sel], e_src[sel], e_dst[sel]
    so, do, rs, rd = so[sel], do[sel], rs[sel], rd[sel]
    limits = all_limits[sel]

    # Gather the precomputed per-(cluster, ride) feasibility columns,
    # grouped by option so each group is one fancy-indexed slab read.
    n = len(rids)
    d_src = np.zeros(n, dtype=np.float64)
    d_dst = np.zeros(n, dtype=np.float64)
    seg_e = np.full(n, -1, dtype=np.int64)
    seg_l = np.full(n, -1, dtype=np.int64)
    sp_a = np.zeros(n, dtype=np.int64)
    sp_b = np.zeros(n, dtype=np.int64)
    sd_a = np.zeros(n, dtype=np.int64)
    sd_b = np.zeros(n, dtype=np.int64)
    sp_len = np.zeros(n, dtype=np.float64)
    sd_len = np.zeros(n, dtype=np.float64)
    for oi in np.unique(so):
        mask = so == oi
        slab = flat.slab(source_options[oi].cluster_id)
        rows = rs[mask]
        d_src[mask] = slab.fdata[rows, F_DETOUR]
        sp_len[mask] = slab.fdata[rows, F_SP_LEN]
        seg_e[mask] = slab.idata[rows, I_SEG_E]
        sp_a[mask] = slab.idata[rows, I_SP_A]
        sp_b[mask] = slab.idata[rows, I_SP_B]
    for oi in np.unique(do):
        mask = do == oi
        slab = flat.slab(destination_options[oi].cluster_id)
        rows = rd[mask]
        d_dst[mask] = slab.fdata[rows, F_DETOUR]
        sd_len[mask] = slab.fdata[rows, F_SD_LEN]
        seg_l[mask] = slab.idata[rows, I_SEG_L]
        sd_a[mask] = slab.idata[rows, I_SD_A]
        sd_b[mask] = slab.idata[rows, I_SD_B]

    valid = (seg_e >= 0) & (seg_l >= 0)          # segment_for found a segment
    if not valid.any():
        return []
    sel2 = np.nonzero(valid)[0]
    if len(sel2) != n:
        rids, e_src, e_dst, so, do = (
            rids[sel2], e_src[sel2], e_dst[sel2], so[sel2], do[sel2]
        )
        limits, d_src, d_dst = limits[sel2], d_src[sel2], d_dst[sel2]
        seg_e, seg_l = seg_e[sel2], seg_l[sel2]
        sp_a, sp_b, sd_a, sd_b = sp_a[sel2], sp_b[sel2], sd_a[sel2], sd_b[sel2]
        sp_len, sd_len = sp_len[sel2], sd_len[sel2]
        n = len(sel2)

    coarse = d_src + d_dst
    # Rare: the latest drop-off segment precedes the earliest pickup
    # segment; those rows retry with at_least through the exact scalar path.
    fallback = seg_l < seg_e

    # Landmark-level splice estimate — same float64 operation order as
    # _splice_estimate, so the values are bit-identical.
    lm_ok = (sp_a >= 0) & (sp_b >= 0) & (sd_a >= 0) & (sd_b >= 0)
    # Mask invalid landmark ids to 0 BEFORE the gather (negative indices
    # would silently wrap); lm_ok discards those rows afterwards.
    ia = np.where(lm_ok, sp_a, 0)
    ib = np.where(lm_ok, sp_b, 0)
    ic = np.where(lm_ok, sd_a, 0)
    ie = np.where(lm_ok, sd_b, 0)
    src_lm = np.array([o.landmark_id for o in source_options], dtype=np.int64)
    dst_lm = np.array([o.landmark_id for o in destination_options], dtype=np.int64)
    p = src_lm[so]
    d = dst_lm[do]
    D = region.landmark_matrix.values
    est = np.where(
        seg_e == seg_l,
        D[ia, p] + D[p, d] + D[d, ib] - sp_len,
        (D[ia, p] + D[p, ib] - sp_len) + (D[ic, d] + D[d, ie] - sd_len),
    )
    bad = np.isinf(est) | np.isnan(est)
    est = np.maximum(0.0, est)
    detour = np.where(lm_ok & ~bad, est, coarse)
    final = (detour <= limits) & ~fallback

    request_id = request.request_id
    # Batch-convert to Python scalars once (C speed) so the build loop
    # touches no numpy scalars; _build_match fills the instance dict
    # directly instead of paying the frozen-dataclass per-field setattr.
    rid_l = rids.tolist()
    es_l = e_src.tolist()
    ed_l = e_dst.tolist()
    so_l = so.tolist()
    do_l = do.tolist()
    det_l = detour.tolist()
    walk_tot = src_walk[so] + dst_walk[do]
    walk_l = walk_tot.tolist()

    # Segment-order retries go through the exact legacy scalar path; they
    # are rare, so building them eagerly is fine.
    fb_matches: list = []
    fb_keys: list = []
    if fallback.any():
        for j in np.nonzero(fallback)[0].tolist():
            ride_id = rid_l[j]
            ride = engine.rides.get(ride_id)
            entry = engine.ride_entries.get(ride_id)
            if ride is None or entry is None:
                continue
            o_s = source_options[so_l[j]]
            o_d = destination_options[do_l[j]]
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
            if det > ride.detour_limit_m:
                continue
            fb_matches.append(
                _build_match(
                    ride_id,
                    request_id,
                    o_s.cluster_id,
                    o_s.landmark_id,
                    o_s.walk_m,
                    o_d.cluster_id,
                    o_d.landmark_id,
                    o_d.walk_m,
                    es_l[j],
                    ed_l[j],
                    det,
                )
            )
            fb_keys.append((walk_l[j], es_l[j], ride_id))

    # Rank + top-k cut on the scalar key arrays so only the k survivors
    # are ever constructed.  Each ride id appears at most once (R1 is a
    # np.unique over rides), so (walk, eta, ride_id) is a total order and
    # np.lexsort agrees exactly with the legacy tuple sort.
    vec = np.nonzero(final)[0]
    n_vec = len(vec)
    w_keys = walk_tot[vec]
    e_keys = e_src[vec]
    r_keys = rids[vec]
    if fb_keys:
        w_keys = np.concatenate(
            [w_keys, np.array([key[0] for key in fb_keys], dtype=np.float64)]
        )
        e_keys = np.concatenate(
            [e_keys, np.array([key[1] for key in fb_keys], dtype=np.float64)]
        )
        r_keys = np.concatenate(
            [r_keys, np.array([key[2] for key in fb_keys], dtype=np.int64)]
        )
    order = np.lexsort((r_keys, e_keys, w_keys))
    if k is not None:
        order = order[:k]

    matches = []
    vec_l = vec.tolist()
    for t in order.tolist():
        if t >= n_vec:
            matches.append(fb_matches[t - n_vec])
            continue
        j = vec_l[t]
        o_s = source_options[so_l[j]]
        o_d = destination_options[do_l[j]]
        matches.append(
            _build_match(
                rid_l[j],
                request_id,
                o_s.cluster_id,
                o_s.landmark_id,
                o_s.walk_m,
                o_d.cluster_id,
                o_d.landmark_id,
                o_d.walk_m,
                es_l[j],
                ed_l[j],
                det_l[j],
            )
        )
    return matches
