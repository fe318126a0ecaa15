"""Reference implementations of the write-path kernels.

These are the loop bodies of ``dijkstra_all`` / ``dijkstra_path`` / ``astar``,
``build_ride_entry`` and ``_feasibility_row`` exactly as they stood before
the write path was flattened (per-edge attribute lookups, a Python loop per
(visit, candidate) pair, two ``segment_for`` scans per slab row).  They are
slow and obviously correct; the property tests require the production
kernels to equal them with ``==`` — on floats, on node paths, and on the
*insertion order* of ``entry.reachable`` — so they must not be "improved".
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import NoPathError
from repro.index import PassThrough, ReachableInfo, RideIndexEntry, SegmentMeta


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


def ref_find_edge(network, source: int, target: int):
    """First edge ``source -> target`` by linear scan (parallel edges keep
    first-match semantics), or None."""
    for edge in network.out_edges(source):
        if edge.target == target:
            return edge
    return None


# ----------------------------------------------------------------------
# core.reachability
# ----------------------------------------------------------------------
def ref_build_ride_entry(region, ride) -> RideIndexEntry:
    entry = RideIndexEntry(ride_id=ride.ride_id)
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
            visit.cluster_id, ReachableInfo(cluster_id=visit.cluster_id)
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
                    candidate, ReachableInfo(cluster_id=candidate)
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
def _segment_meta(entry, segment: int) -> Tuple[int, int, float]:
    if 0 <= segment < len(entry.segments):
        meta = entry.segments[segment]
        return meta.start_landmark, meta.end_landmark, meta.length_m
    return -1, -1, 0.0


def ref_feasibility_row(entry, cluster_id: int, eta_s: float):
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
