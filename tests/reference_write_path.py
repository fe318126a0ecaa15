"""Reference implementations of the write-path kernels.

These are a plain one-to-all Dijkstra (the distances every
``many_source_distances`` row must equal) and the loop bodies of
``dijkstra_path`` / ``astar``, ``build_ride_entry`` and ``_feasibility_row``
exactly as they stood before the write path was flattened (per-edge
attribute lookups, a Python loop per (visit, candidate) pair, two
``segment_for`` scans per slab row), the ride's index entry as it stood
before it became arrays (a dict of ``ReachableInfo`` objects with a ``set``
of supports each, shrunk in place by tracking), the region builder's
matrices as they stood before they were built in arrays (one Dijkstra per
landmark, an L-long inner loop per source, a C² loop of ``np.ix_``
gathers), the per-cluster potential-ride index as it stood before its two
sorted lists became views of one dict (``RefClusterRideIndex``: both lists
maintained on every write), a ride's route geometry as it stood before it
became arrays (cumulative offsets and times as Python lists,
``bisect_right`` for the index at a time), and the flat index's row lookup
as it stood before per-ride row handles replaced each slab's
``ride -> row`` dict.  They are slow and obviously correct; the property tests
require the production kernels to equal them with ``==`` — on floats, on
node paths, on the *insertion order* of ``entry.reachable`` and on the order
of equal ETAs in a window — so they must not be "improved".
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import NoPathError
from repro.index import PassThrough, PotentialRide, SegmentMeta
from repro.index.flat_index import F_ETA
from repro.index.sorted_list import SortedKeyList


# ----------------------------------------------------------------------
# roadnet
# ----------------------------------------------------------------------
def _weight(edge, weight: str) -> float:
    return edge.length_m if weight == "length" else edge.travel_seconds


def ref_dijkstra_all(
    network,
    source: int,
    weight: str = "length",
    cutoff: Optional[float] = None,
    targets: Optional[Set[int]] = None,
) -> Dict[int, float]:
    dist: Dict[int, float] = {}
    remaining = set(targets) if targets is not None else None
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        if cutoff is not None and d > cutoff:
            break
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for edge in network.out_edges(node):
            if edge.target not in dist:
                heapq.heappush(heap, (d + _weight(edge, weight), edge.target))
    return dist


def ref_dijkstra_path(
    network, source: int, target: int, weight: str = "length"
) -> Tuple[float, List[int]]:
    if source == target:
        return 0.0, [source]
    settled: Dict[int, float] = {}
    seen: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = d
        if node == target:
            return d, _trace(parent, source, target)
        for edge in network.out_edges(node):
            nxt = edge.target
            if nxt in settled:
                continue
            nd = d + _weight(edge, weight)
            if nd < seen.get(nxt, float("inf")):
                seen[nxt] = nd
                parent[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    raise NoPathError(source, target)


def ref_astar(network, source: int, target: int) -> Tuple[float, List[int]]:
    if source == target:
        return 0.0, [source]
    goal = network.position(target)
    settled: Dict[int, float] = {}
    seen: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    start_h = network.position(source).distance_to(goal)
    heap: List[Tuple[float, float, int]] = [(start_h, 0.0, source)]
    while heap:
        _f, d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = d
        if node == target:
            return d, _trace(parent, source, target)
        for edge in network.out_edges(node):
            nxt = edge.target
            if nxt in settled:
                continue
            nd = d + edge.length_m
            if nd < seen.get(nxt, float("inf")):
                seen[nxt] = nd
                parent[nxt] = node
                h = network.position(nxt).distance_to(goal)
                heapq.heappush(heap, (nd + h, nd, nxt))
    raise NoPathError(source, target)


def _trace(parent: Dict[int, int], source: int, target: int) -> List[int]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def ref_landmark_distance_matrix(network, landmarks) -> np.ndarray:
    """The landmark matrix, max-symmetrised (the values of the
    ``DistanceMatrix`` the builder hands on), one ``ref_dijkstra_all`` per
    landmark."""
    n = len(landmarks)
    nodes = [lm.node for lm in landmarks]
    node_set = set(nodes)
    raw = np.full((n, n), np.inf, dtype=np.float64)
    for i, source in enumerate(nodes):
        dist = ref_dijkstra_all(network, source, targets=set(node_set))
        for j, target in enumerate(nodes):
            if target in dist:
                raw[i, j] = dist[target]
    np.fill_diagonal(raw, 0.0)
    sym = np.maximum(raw, raw.T)
    np.fill_diagonal(sym, 0.0)
    return sym


def ref_cluster_matrix(values: np.ndarray, clusters) -> np.ndarray:
    """k x k cluster distances from the landmark matrix ``values``."""
    k = len(clusters)
    matrix = np.zeros((k, k), dtype=np.float64)
    index_arrays = [
        np.asarray(cluster.landmark_ids, dtype=np.intp) for cluster in clusters
    ]
    for i in range(k):
        for j in range(i + 1, k):
            d = float(values[np.ix_(index_arrays[i], index_arrays[j])].min())
            matrix[i, j] = d
            matrix[j, i] = d
    return matrix


def ref_find_edge(network, source: int, target: int):
    """First edge ``source -> target`` by linear scan (parallel edges keep
    first-match semantics), or None."""
    for edge in network.out_edges(source):
        if edge.target == target:
            return edge
    return None


# ----------------------------------------------------------------------
# core.ride: the route geometry as lists
# ----------------------------------------------------------------------
def ref_route_geometry(network, route: List[int]) -> Tuple[List[float], List[float]]:
    """Cumulative offsets (m) and travel times (s) along ``route``."""
    hops = network.frozen().hops
    offset = elapsed = 0.0
    offsets = [offset]
    times = [elapsed]
    for a, b in zip(route, route[1:]):
        length_m, travel_s = hops[(a, b)]
        offset += length_m
        elapsed += travel_s
        offsets.append(offset)
        times.append(elapsed)
    return offsets, times


def ref_index_at_time(ride, times: List[float], now_s: float) -> int:
    elapsed = now_s - ride.departure_s
    if elapsed <= 0:
        return 0
    return min(bisect_right(times, elapsed) - 1, len(times) - 1)


def _bits(values) -> List[str]:
    return [float(value).hex() for value in values]


def assert_geometry_equals_reference(ride) -> None:
    """The ride's arrays and every accessor over them equal the list-based
    geometry bit for bit; the accessors hand out Python scalars."""
    route = ride.route
    offsets, times = ref_route_geometry(ride.network, route)
    geometry = ride.geometry
    assert type(route) is list and all(type(node) is int for node in route)
    assert geometry.route.tolist() == route
    assert _bits(geometry.offsets_m) == _bits(offsets)
    assert _bits(geometry.times_s) == _bits(times)
    for column in geometry:
        assert not column.flags.writeable
    assert type(ride.length_m) is float and ride.length_m == offsets[-1]
    assert type(ride.duration_s) is float and ride.duration_s == times[-1]
    for index, (offset, elapsed) in enumerate(zip(offsets, times)):
        eta = ride.eta_at_index(index)
        assert type(eta) is float and eta.hex() == (ride.departure_s + elapsed).hex()
        assert ride.offset_at_index(index).hex() == offset.hex()
    probes = [ride.departure_s - 1.0, ride.departure_s, ride.arrival_s + 1.0]
    for elapsed in times:
        now = ride.departure_s + elapsed
        probes += [now, np.nextafter(now, -np.inf), np.nextafter(now, np.inf)]
    for now in probes:
        now = float(now)
        assert ride.index_at_time(now) == ref_index_at_time(ride, times, now)


# ----------------------------------------------------------------------
# index.ride_index: the entry as objects, mutated in place by tracking
# ----------------------------------------------------------------------
@dataclass
class RefReachableInfo:
    cluster_id: int
    supports: Set[int] = field(default_factory=set)
    eta_s: float = float("inf")
    detour_estimate_m: float = float("inf")
    support_landmark: int = -1
    via_landmark: int = -1

    def merge(
        self,
        support: int,
        eta_s: float,
        detour_m: float,
        support_landmark: int = -1,
        via_landmark: int = -1,
    ) -> None:
        self.supports.add(support)
        if eta_s < self.eta_s:
            self.eta_s = eta_s
        if detour_m < self.detour_estimate_m:
            self.detour_estimate_m = detour_m
            self.support_landmark = support_landmark
            self.via_landmark = via_landmark


@dataclass
class RefRideIndexEntry:
    ride_id: int
    pass_through: List[PassThrough] = field(default_factory=list)
    #: cluster id -> RefReachableInfo, in insertion order.
    reachable: Dict[int, RefReachableInfo] = field(default_factory=dict)
    segments: List[SegmentMeta] = field(default_factory=list)

    def pass_through_ids(self) -> Set[int]:
        return {visit.cluster_id for visit in self.pass_through}

    def drop_pass_through(self, cluster_ids: Set[int]) -> None:
        self.pass_through = [
            visit for visit in self.pass_through if visit.cluster_id not in cluster_ids
        ]

    def segment_for(
        self, cluster_id: int, earliest: bool, at_least: Optional[int] = None
    ) -> Optional[int]:
        info = self.reachable.get(cluster_id)
        if info is None:
            return None
        candidates = [
            visit
            for visit in self.pass_through
            if visit.cluster_id in info.supports
            and (at_least is None or visit.segment_index >= at_least)
        ]
        if not candidates:
            return None
        if earliest:
            chosen = min(candidates, key=lambda visit: visit.eta_s)
        else:
            chosen = max(candidates, key=lambda visit: visit.eta_s)
        return chosen.segment_index

    def remove_supports(self, cluster_ids: Set[int]) -> List[int]:
        orphaned: List[int] = []
        for cluster_id, info in list(self.reachable.items()):
            info.supports -= cluster_ids
            if not info.supports:
                orphaned.append(cluster_id)
                del self.reachable[cluster_id]
        return orphaned


def ref_obsolescence(
    entry: RefRideIndexEntry, now_s: float
) -> Tuple[List[int], List[int]]:
    """Tracking Steps 1-3 in place, as ``apply_obsolescence`` did on the
    object entry; returns ``(orphaned, shrunk)`` clusters in dict order."""
    crossed = {v.cluster_id for v in entry.pass_through if v.eta_s <= now_s}
    if not crossed:
        return [], []
    shrunk = [
        cluster_id
        for cluster_id, info in entry.reachable.items()
        if not info.supports.isdisjoint(crossed)
    ]
    orphaned = entry.remove_supports(crossed)
    entry.drop_pass_through(crossed)
    return orphaned, [c for c in shrunk if c in entry.reachable]


def as_reference(entry) -> RefRideIndexEntry:
    """The object entry holding what a production entry's views read."""
    return RefRideIndexEntry(
        ride_id=entry.ride_id,
        pass_through=list(entry.pass_through),
        reachable={
            cluster_id: RefReachableInfo(
                info.cluster_id,
                set(info.supports),
                info.eta_s,
                info.detour_estimate_m,
                info.support_landmark,
                info.via_landmark,
            )
            for cluster_id, info in entry.reachable.items()
        },
        segments=list(entry.segments),
    )


def from_reference(ref: RefRideIndexEntry):
    """The production (array) entry holding what an object entry holds.

    Supports are columns of the visits, so a support naming a cluster with
    no visit cannot be expressed and raises ``ValueError``.
    """
    from repro.index import RideIndexEntry

    visits = ref.pass_through
    column = {visit.cluster_id: i for i, visit in enumerate(visits)}
    infos = list(ref.reachable.values())
    supports = np.zeros((len(infos), len(visits)), dtype=bool)
    for row, info in enumerate(infos):
        for cluster_id in info.supports:
            if cluster_id not in column:
                raise ValueError(f"support {cluster_id} has no pass-through visit")
            supports[row, column[cluster_id]] = True
    return RideIndexEntry(
        ref.ride_id,
        _block([(v.eta_s, v.route_offset_m) for v in visits], 2, np.float64),
        _block(
            [(v.cluster_id, v.segment_index, v.landmark_id) for v in visits],
            3, np.int64,
        ),
        _block([(i.eta_s, i.detour_estimate_m) for i in infos], 2, np.float64),
        _block(
            [(i.cluster_id, i.support_landmark, i.via_landmark) for i in infos],
            3, np.int64,
        ),
        supports,
        _block(
            [(m.start_landmark, m.end_landmark) for m in ref.segments], 2, np.int64
        ),
        np.array([m.length_m for m in ref.segments], dtype=np.float64),
    )


def _block(rows, width: int, dtype) -> np.ndarray:
    """``rows`` as an owned ``len(rows) x width`` array (empty included)."""
    return np.array(rows, dtype=dtype) if rows else np.empty((0, width), dtype)


def assert_entry_equals_reference(got, want: RefRideIndexEntry) -> None:
    """A production entry reads, field by field and with ``==``, what the
    reference object entry holds — reachable order included."""
    assert got.ride_id == want.ride_id
    assert list(got.pass_through) == want.pass_through
    assert list(got.segments) == want.segments
    assert list(got.reachable) == list(want.reachable)  # dict order, too
    for (cluster_id, info), ref in zip(got.reachable.items(), want.reachable.values()):
        assert info.cluster_id == ref.cluster_id == cluster_id
        assert info.supports == ref.supports, cluster_id
        assert info.eta_s == ref.eta_s, cluster_id
        assert info.detour_estimate_m == ref.detour_estimate_m, cluster_id
        assert info.support_landmark == ref.support_landmark, cluster_id
        assert info.via_landmark == ref.via_landmark, cluster_id


# ----------------------------------------------------------------------
# core.reachability
# ----------------------------------------------------------------------
def ref_build_ride_entry(region, ride) -> RefRideIndexEntry:
    entry = RefRideIndexEntry(ride_id=ride.ride_id)
    visits = _pass_through_visits(region, ride)
    entry.pass_through = visits
    entry.segments = _entry_segment_meta(region, ride)
    if not visits:
        return entry

    detour_limit = ride.detour_limit_m
    drive = region.config.drive_seconds
    via_landmarks = {
        segment_index: _via_landmark(region, ride, segment_index, visits)
        for segment_index in range(ride.n_segments)
    }

    for visit in visits:
        info = entry.reachable.setdefault(
            visit.cluster_id, RefReachableInfo(cluster_id=visit.cluster_id)
        )
        info.merge(
            support=visit.cluster_id,
            eta_s=visit.eta_s,
            detour_m=0.0,
            support_landmark=visit.landmark_id,
            via_landmark=via_landmarks.get(visit.segment_index, -1),
        )

    if detour_limit <= 0:
        return entry

    for segment_index in range(ride.n_segments):
        segment_visits = [v for v in visits if v.segment_index == segment_index]
        if not segment_visits:
            continue
        via_cluster = _via_cluster(region, ride, segment_index, segment_visits)
        via_landmark = via_landmarks[segment_index]
        for visit in segment_visits:
            c = visit.cluster_id
            d_c_via = region.cluster_distance(c, via_cluster)
            for candidate, d_c_cand in region.clusters_within(c, detour_limit):
                if candidate == c:
                    continue
                d_cand_via = region.cluster_distance(candidate, via_cluster)
                detour = d_c_cand + d_cand_via - d_c_via
                if detour > detour_limit:
                    continue
                info = entry.reachable.setdefault(
                    candidate, RefReachableInfo(cluster_id=candidate)
                )
                info.merge(
                    support=c,
                    eta_s=visit.eta_s + drive(d_c_cand),
                    detour_m=max(0.0, detour),
                    support_landmark=visit.landmark_id,
                    via_landmark=via_landmark,
                )
    return entry


def _pass_through_visits(region, ride) -> List[PassThrough]:
    visits: List[PassThrough] = []
    seen: Set[int] = set()
    route = ride.route
    for route_index, node in enumerate(route):
        hit = region.landmark_of_node(node)
        if hit is None:
            continue
        landmark_id, _distance = hit
        cluster_id = region.cluster_of_landmark(landmark_id)
        if cluster_id in seen:
            continue
        seen.add(cluster_id)
        visits.append(
            PassThrough(
                cluster_id=cluster_id,
                segment_index=ride.segment_of_route_index(route_index),
                eta_s=ride.eta_at_index(route_index),
                route_offset_m=ride.offset_at_index(route_index),
                landmark_id=landmark_id,
            )
        )
    return visits


def _via_cluster(region, ride, segment_index: int, segment_visits) -> int:
    via_node = ride.via_points[segment_index + 1].node
    hit = region.landmark_of_node(via_node)
    if hit is not None:
        return region.cluster_of_landmark(hit[0])
    return segment_visits[-1].cluster_id


def _entry_segment_meta(region, ride) -> List[SegmentMeta]:
    meta: List[SegmentMeta] = []
    for segment_index in range(ride.n_segments):
        start, end = ride.segment_bounds(segment_index)
        start_hit = region.landmark_of_node(ride.route[start])
        end_hit = region.landmark_of_node(ride.route[end])
        meta.append(
            SegmentMeta(
                start_landmark=start_hit[0] if start_hit else -1,
                end_landmark=end_hit[0] if end_hit else -1,
                length_m=ride.offset_at_index(end) - ride.offset_at_index(start),
            )
        )
    return meta


def _via_landmark(region, ride, segment_index: int, visits) -> int:
    via_node = ride.via_points[segment_index + 1].node
    hit = region.landmark_of_node(via_node)
    if hit is not None:
        return hit[0]
    segment_visits = [v for v in visits if v.segment_index == segment_index]
    if segment_visits:
        return segment_visits[-1].landmark_id
    return visits[-1].landmark_id if visits else -1


# ----------------------------------------------------------------------
# index.flat_index
# ----------------------------------------------------------------------
def ref_slab_rows(slab) -> Dict[int, int]:
    """The slab's ``ride -> storage row`` map, by a scan of its live rows."""
    rows = {int(rid): row for row, rid in enumerate(slab.rids[: slab.n].tolist())}
    assert len(rows) == slab.n, "a ride holds two rows of one slab"
    return rows


def assert_row_handles(flat, cluster_index=None) -> int:
    """Every ride's row handles name, cluster by cluster, the slab row that
    holds that ride (with the ETA ``cluster_index`` stores, when given),
    and every live slab row is named by exactly one handle."""
    assert set(flat._ride_rows) == set(flat._ride_clusters)
    named = 0
    maps = [ref_slab_rows(slab) for slab in flat._slabs]
    for ride_id, clusters in flat._ride_clusters.items():
        rows = flat._ride_rows[ride_id]
        assert rows.itemsize == 4 and len(rows) == len(clusters)
        assert len(set(clusters)) == len(clusters)
        for cluster_id, row in zip(clusters, rows.tolist()):
            assert maps[cluster_id].get(ride_id) == row, (ride_id, cluster_id)
            if cluster_index is not None:
                stored = flat._slabs[cluster_id].fdata[row, F_ETA]
                assert stored == cluster_index.eta(cluster_id, ride_id)
            named += 1
    assert named == sum(slab.n for slab in flat._slabs)
    return named


def _segment_meta(entry, segment: int) -> Tuple[int, int, float]:
    if 0 <= segment < len(entry.segments):
        meta = entry.segments[segment]
        return meta.start_landmark, meta.end_landmark, meta.length_m
    return -1, -1, 0.0


def ref_feasibility_row(entry: RefRideIndexEntry, cluster_id: int, eta_s: float):
    """The slab row of ``cluster_id`` from an object entry (see
    ``as_reference``), by two ``segment_for`` scans."""
    info = entry.reachable.get(cluster_id)
    detour = info.detour_estimate_m if info is not None else float("inf")
    seg_e = entry.segment_for(cluster_id, earliest=True)
    seg_l = entry.segment_for(cluster_id, earliest=False)
    sp_a, sp_b, sp_len = (
        _segment_meta(entry, seg_e) if seg_e is not None else (-1, -1, 0.0)
    )
    sd_a, sd_b, sd_len = (
        _segment_meta(entry, seg_l) if seg_l is not None else (-1, -1, 0.0)
    )
    return (
        (eta_s, detour, sp_len, sd_len),
        (
            -1 if seg_e is None else seg_e,
            -1 if seg_l is None else seg_l,
            sp_a,
            sp_b,
            sd_a,
            sd_b,
        ),
    )


# ----------------------------------------------------------------------
# index.cluster_index
# ----------------------------------------------------------------------
class _ClusterLists:
    """The two sorted orders over one cluster's potential rides."""

    __slots__ = ("by_eta", "by_ride")

    def __init__(self):
        self.by_eta: SortedKeyList[PotentialRide] = SortedKeyList(
            key=lambda entry: entry.eta_s
        )
        self.by_ride: SortedKeyList[PotentialRide] = SortedKeyList(
            key=lambda entry: entry.ride_id
        )


class RefClusterRideIndex:
    """All clusters' potential-ride lists, with consistent dual ordering."""

    def __init__(self, n_clusters: int):
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters!r}")
        self._lists: List[_ClusterLists] = [_ClusterLists() for _c in range(n_clusters)]

    @property
    def n_clusters(self) -> int:
        return len(self._lists)

    def add(self, cluster_id: int, ride_id: int, eta_s: float) -> None:
        lists = self._lists[cluster_id]
        existing = lists.by_ride.find_by_key(ride_id)
        if existing is not None:
            if eta_s >= existing.eta_s:
                return
            lists.by_ride.remove(existing)
            lists.by_eta.remove(existing)
        entry = PotentialRide(ride_id=ride_id, eta_s=eta_s)
        lists.by_eta.add(entry)
        lists.by_ride.add(entry)

    def update(self, cluster_id: int, ride_id: int, eta_s: float) -> None:
        lists = self._lists[cluster_id]
        existing = lists.by_ride.find_by_key(ride_id)
        if existing is not None:
            if eta_s == existing.eta_s:
                return
            lists.by_ride.remove(existing)
            lists.by_eta.remove(existing)
        entry = PotentialRide(ride_id=ride_id, eta_s=eta_s)
        lists.by_eta.add(entry)
        lists.by_ride.add(entry)

    def remove(self, cluster_id: int, ride_id: int) -> bool:
        lists = self._lists[cluster_id]
        existing = lists.by_ride.find_by_key(ride_id)
        if existing is None:
            return False
        lists.by_ride.remove(existing)
        lists.by_eta.remove(existing)
        return True

    def purge_ride(self, ride_id: int) -> int:
        purged = 0
        for cluster_id in range(len(self._lists)):
            if self.remove(cluster_id, ride_id):
                purged += 1
        return purged

    def eta(self, cluster_id: int, ride_id: int) -> Optional[float]:
        existing = self._lists[cluster_id].by_ride.find_by_key(ride_id)
        return existing.eta_s if existing is not None else None

    def rides_in_window(
        self, cluster_id: int, start_s: float, end_s: float
    ) -> Iterator[PotentialRide]:
        return self._lists[cluster_id].by_eta.irange(start_s, end_s)

    def count_in_window(
        self, cluster_id: int, start_s: float, end_s: float
    ) -> int:
        return self._lists[cluster_id].by_eta.count_in_range(start_s, end_s)

    def potential_count(self, cluster_id: int) -> int:
        return len(self._lists[cluster_id].by_ride)

    def all_rides(self, cluster_id: int) -> Iterator[PotentialRide]:
        return iter(self._lists[cluster_id].by_ride)

    def total_entries(self) -> int:
        return sum(len(lists.by_ride) for lists in self._lists)

    def check_consistency(self) -> None:
        for cluster_id, lists in enumerate(self._lists):
            a = sorted((e.ride_id, e.eta_s) for e in lists.by_eta)
            b = sorted((e.ride_id, e.eta_s) for e in lists.by_ride)
            if a != b:
                raise AssertionError(
                    f"cluster {cluster_id} dual lists diverged: {a} != {b}"
                )
