"""Pass-through and reachable cluster computation (paper Section VI).

For a ride offered in the system:

1. the grids its route passes through are identified, their landmarks give
   the **pass-through clusters** per segment;
2. per pass-through cluster C in segment (i, i+1), the candidate reachable
   set is every cluster within the detour limit d of C, pruned by the test
   ``d(C, C') + d(C', via_{i+1}) - d(C, via_{i+1}) <= d``;
3. the ride is added to the potential-ride list of each pass-through and
   reachable cluster with its estimated time of arrival.

All distances here are *cluster-level* (closest landmark pairs), which is the
whole point: no shortest path is ever computed, and the resulting detour
estimates are correct within the ε = 4δ tolerance of Theorem 6.

The distance from a cluster X to a via-point v is approximated by
``cluster_distance(X, cluster_of(v))`` — when v's grid maps to no cluster,
the nearest pass-through cluster of the segment stands in.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..discretization import DiscretizedRegion
from ..index import PassThrough, ReachableInfo, RideIndexEntry, SegmentMeta
from .ride import Ride


def build_ride_entry(region: DiscretizedRegion, ride: Ride) -> RideIndexEntry:
    """Compute the full index entry (pass-through + reachable) for a ride."""
    entry = RideIndexEntry(ride_id=ride.ride_id)
    visits = _pass_through_visits(region, ride)
    entry.pass_through = visits
    entry.segments = _segment_meta(region, ride)
    if not visits:
        return entry

    via_landmarks = {
        segment_index: _via_landmark(region, ride, segment_index, visits)
        for segment_index in range(ride.n_segments)
    }

    # Pass-through clusters serve requests with zero cluster-level detour.
    reachable = entry.reachable
    for visit in visits:
        info = reachable.get(visit.cluster_id)
        if info is None:
            info = reachable[visit.cluster_id] = ReachableInfo(visit.cluster_id)
        info.merge(
            support=visit.cluster_id,
            eta_s=visit.eta_s,
            detour_m=0.0,
            support_landmark=visit.landmark_id,
            via_landmark=via_landmarks.get(visit.segment_index, -1),
        )

    if ride.detour_limit_m > 0:
        _merge_detour_reachable(region, ride, visits, via_landmarks, reachable)
    return entry


def _merge_detour_reachable(
    region: DiscretizedRegion,
    ride: Ride,
    visits: List[PassThrough],
    via_landmarks: Dict[int, int],
    reachable: Dict[int, ReachableInfo],
) -> None:
    """Merge every off-route cluster within the detour limit into
    ``reachable`` — all (visit, candidate) detour tests in one array pass.

    The scalar formulation this replaces (kept as the reference the tests
    compare against) walked segments in order, a segment's visits in route
    order, and each visit's ``clusters_within`` candidates by (distance,
    cluster id), merging one pair at a time.  ``visits`` is already in that
    walk order — ``_pass_through_visits`` emits them in route order and its
    segment cursor only moves forward — and everything else order-dependent
    in the walk is reproduced exactly:

    * the detour is ``(D[c, x] + D[x, via]) - D[c, via]`` in that float
      operation order, kept when *not* ``> limit`` and clamped like
      ``max(0.0, detour)`` (a NaN from ``inf - inf`` passes and clamps to 0);
    * a cluster's ``support_landmark``/``via_landmark`` come from the first
      pair, in walk order, attaining its minimal detour;
    * new clusters enter ``reachable`` in order of their first pair in the
      walk — that dict order becomes the slab append order the flat index's
      stable sorts tie on.
    """
    limit = ride.detour_limit_m
    last_of_segment = {v.segment_index: v for v in visits}
    via_cluster = {
        segment_index: _via_cluster(region, ride, segment_index, last.cluster_id)
        for segment_index, last in last_of_segment.items()
    }

    D = region.cluster_matrix
    m = len(visits)
    c = np.array([v.cluster_id for v in visits], dtype=np.intp)
    via = np.array([via_cluster[v.segment_index] for v in visits], dtype=np.intp)
    d_c_cand = D[c]  # [i, x] = D[c_i, x]
    # D[x, via_i] read as D[via_i, x]: the region builds the matrix exactly
    # symmetric (one float stored both ways), and whole rows are contiguous
    # where a column gather would touch one cache line per element.
    with np.errstate(invalid="ignore"):  # inf - inf on a disconnected region
        detour = d_c_cand + D[via] - D[c, via][:, None]
    keep = (d_c_cand <= limit) & ~(detour > limit)
    keep[np.arange(m), c] = False  # a cluster does not detour to itself
    rows, cands = keep.nonzero()  # row-major: walk order of the visits
    n_pairs = len(rows)
    if not n_pairs:
        return
    dist = d_c_cand[rows, cands]
    det = detour[rows, cands]
    det = np.where(det > 0.0, det, 0.0)
    eta = np.array([v.eta_s for v in visits])[rows] + region.config.drive_seconds(dist)

    # Group by candidate, then detour.  A (visit, candidate) pair is unique,
    # so within a group the scalar walk met the pairs in visit order — the
    # order ``nonzero`` produced and the stable lexsort keeps on ties: each
    # group's first pair is the one whose landmarks the scalar merge kept.
    by = np.lexsort((det, cands))
    grouped = cands[by]
    is_start = np.empty(n_pairs, dtype=bool)
    is_start[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=is_start[1:])
    starts = is_start.nonzero()[0]
    winners = by[starts]
    clusters = grouped[starts]
    eta_min = np.minimum.reduceat(eta[by], starts).tolist()
    det_min = det[winners].tolist()
    winner_visit = rows[winners].tolist()
    supports = c[rows[by]].tolist()
    bounds = starts.tolist()
    bounds.append(n_pairs)
    # New clusters enter the dict by their first pair in the scalar walk:
    # their earliest visit, then that visit's (distance, cluster id) order.
    first = np.minimum.reduceat(by, starts)
    entry_order = np.lexsort((clusters, dist[first], rows[first])).tolist()
    clusters = clusters.tolist()
    for g in entry_order:
        cluster_id = clusters[g]
        support_set = set(supports[bounds[g]:bounds[g + 1]])
        won = visits[winner_visit[g]]
        info = reachable.get(cluster_id)
        if info is None:
            reachable[cluster_id] = ReachableInfo(
                cluster_id,
                support_set,
                eta_min[g],
                det_min[g],
                won.landmark_id,
                via_landmarks[won.segment_index],
            )
            continue
        info.supports |= support_set
        if eta_min[g] < info.eta_s:
            info.eta_s = eta_min[g]
        if det_min[g] < info.detour_estimate_m:
            info.detour_estimate_m = det_min[g]
            info.support_landmark = won.landmark_id
            info.via_landmark = via_landmarks[won.segment_index]


def _pass_through_visits(region: DiscretizedRegion, ride: Ride) -> List[PassThrough]:
    """First-encounter cluster visits along the ride's route, in route order."""
    visits: List[PassThrough] = []
    seen: Set[int] = set()
    landmark_of_node = region.landmark_of_node
    cluster_of_landmark = region.cluster_of_landmark
    # ``ride.segment_of_route_index`` for ascending indices, as a cursor:
    # the first segment ending past the index, else the last segment.
    segment_ends = [via.route_index for via in ride.via_points[1:]]
    last_segment = len(segment_ends) - 1
    segment = 0
    for route_index, node in enumerate(ride.route):
        hit = landmark_of_node(node)
        if hit is None:
            continue
        landmark_id = hit[0]
        cluster_id = cluster_of_landmark(landmark_id)
        if cluster_id in seen:
            continue
        seen.add(cluster_id)
        while segment < last_segment and route_index >= segment_ends[segment]:
            segment += 1
        visits.append(
            PassThrough(
                cluster_id=cluster_id,
                segment_index=segment,
                eta_s=ride.eta_at_index(route_index),
                route_offset_m=ride.offset_at_index(route_index),
                landmark_id=landmark_id,
            )
        )
    return visits


def _via_cluster(
    region: DiscretizedRegion,
    ride: Ride,
    segment_index: int,
    last_cluster: int,
) -> int:
    """Cluster standing in for via-point ``segment_index + 1`` in the detour
    test; falls back to the segment's last pass-through cluster."""
    via_node = ride.via_points[segment_index + 1].node
    hit = region.landmark_of_node(via_node)
    if hit is not None:
        return region.cluster_of_landmark(hit[0])
    return last_cluster


def _segment_meta(region: DiscretizedRegion, ride: Ride) -> List[SegmentMeta]:
    """Landmark-level segment descriptors for detour estimation."""
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


def _via_landmark(
    region: DiscretizedRegion,
    ride: Ride,
    segment_index: int,
    visits: List[PassThrough],
) -> int:
    """Landmark standing in for via-point ``segment_index + 1``; falls back
    to the segment's (or ride's) last pass-through landmark, else -1."""
    via_node = ride.via_points[segment_index + 1].node
    hit = region.landmark_of_node(via_node)
    if hit is not None:
        return hit[0]
    segment_visits = [v for v in visits if v.segment_index == segment_index]
    if segment_visits:
        return segment_visits[-1].landmark_id
    return visits[-1].landmark_id if visits else -1
