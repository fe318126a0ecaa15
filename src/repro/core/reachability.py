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

from typing import List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..discretization import DiscretizedRegion
from ..index import RideIndexEntry
from .ride import Ride


class _Visits(NamedTuple):
    """Pass-through visits as parallel lists, in route order."""

    cluster: List[int]
    segment: List[int]
    eta: List[float]
    offset: List[float]
    landmark: List[int]


class _OffRoute(NamedTuple):
    """What the detour pass adds to the pass-through rows."""

    #: New (off-route) rows, in row order: cluster, ETA, detour and the
    #: visit whose landmarks the row keeps.
    cluster: np.ndarray
    eta: np.ndarray
    detour: np.ndarray
    winner: np.ndarray
    #: Pass-through rows met as candidates, with their best candidate ETA.
    pt_row: np.ndarray
    pt_eta: np.ndarray
    #: Every passing (visit, candidate) pair as a support: row, visit.
    pair_row: np.ndarray
    pair_visit: np.ndarray


def build_ride_entry(region: DiscretizedRegion, ride: Ride) -> RideIndexEntry:
    """Compute the full index entry (pass-through + reachable) for a ride."""
    visits = _pass_through_visits(region, ride)
    m = len(visits.cluster)
    via_landmarks = [
        _via_landmark(region, ride, segment_index, visits)
        for segment_index in range(ride.n_segments)
    ]
    c = np.array(visits.cluster, dtype=np.int64)
    eta = np.array(visits.eta, dtype=np.float64)
    landmark = np.array(visits.landmark, dtype=np.int64)
    segment = np.array(visits.segment, dtype=np.int64)
    # Pass-through clusters serve requests with zero cluster-level detour,
    # each supported by its own visit; their rows come first, in route order.
    clusters = c
    reach_eta = eta.copy()
    detour = np.zeros(m)
    support_lm = landmark
    via_lm = np.array(via_landmarks, dtype=np.int64)[segment]
    supports = np.eye(m, dtype=bool)
    off = None
    if m and ride.detour_limit_m > 0:
        off = _off_route(region, ride, visits, c, eta)
    if off is not None:
        won = off.winner
        clusters = np.concatenate((c, off.cluster))
        reach_eta = np.concatenate((reach_eta, off.eta))
        detour = np.concatenate((detour, off.detour))
        support_lm = np.concatenate((support_lm, landmark[won]))
        via_lm = np.concatenate((via_lm, via_lm[won]))
        supports = np.zeros((len(clusters), m), dtype=bool)
        supports[off.pair_row, off.pair_visit] = True
        supports[np.arange(m), np.arange(m)] = True
        current = reach_eta[off.pt_row]
        reach_eta[off.pt_row] = np.where(off.pt_eta < current, off.pt_eta, current)
    segment_landmarks, segment_length_m = _segment_meta(region, ride)
    return RideIndexEntry(
        ride.ride_id,
        np.column_stack((eta, np.array(visits.offset, dtype=np.float64))),
        np.column_stack((c, segment, landmark)),
        np.column_stack((reach_eta, detour)),
        np.column_stack((clusters, support_lm, via_lm)),
        supports,
        segment_landmarks,
        segment_length_m,
    )


def _off_route(
    region: DiscretizedRegion,
    ride: Ride,
    visits: _Visits,
    c: np.ndarray,
    visit_eta: np.ndarray,
) -> Optional[_OffRoute]:
    """Every cluster within the detour limit of a visit — all (visit,
    candidate) detour tests in one array pass; None when no pair passes.

    The scalar formulation this replaces (kept as the reference the tests
    compare against) walked segments in order, a segment's visits in route
    order, and each visit's ``clusters_within`` candidates by (distance,
    cluster id), merging one pair at a time into a dict.  The visits are
    already in that walk order — ``_pass_through_visits`` emits them in
    route order and its segment cursor only moves forward — and everything
    else order-dependent in the walk is reproduced exactly:

    * the detour is ``(D[c, x] + D[x, via]) - D[c, via]`` in that float
      operation order, kept when *not* ``> limit`` and clamped like
      ``max(0.0, detour)`` (a NaN from ``inf - inf`` passes and clamps to 0);
    * a cluster's ``support_landmark``/``via_landmark`` come from the first
      pair, in walk order, attaining its minimal detour;
    * new clusters get rows in order of their first pair in the walk — the
      order the dict gave them, which becomes the slab append order the
      flat index's stable sorts tie on;
    * a pass-through cluster met as another visit's candidate keeps its
      zero detour and its landmarks, gains the support and takes the
      smaller ETA.
    """
    limit = ride.detour_limit_m
    last_of_segment = dict(zip(visits.segment, visits.cluster))
    via_cluster = {
        segment_index: _via_cluster(region, ride, segment_index, last_cluster)
        for segment_index, last_cluster in last_of_segment.items()
    }

    D = region.cluster_matrix
    m = len(c)
    c = c.astype(np.intp)
    via = np.array([via_cluster[s] for s in visits.segment], dtype=np.intp)
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
        return None
    dist = d_c_cand[rows, cands]
    det = detour[rows, cands]
    det = np.where(det > 0.0, det, 0.0)
    eta = visit_eta[rows] + region.config.drive_seconds(dist)

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
    clusters = grouped[starts]
    eta_min = np.minimum.reduceat(eta[by], starts)

    # Groups whose candidate is itself a pass-through cluster, and its visit.
    order = np.argsort(c)
    pt_visit = order[np.minimum(np.searchsorted(c, clusters, sorter=order), m - 1)]
    is_pt = c[pt_visit] == clusters
    # New clusters enter by their first pair in the scalar walk: their
    # earliest visit, then that visit's (distance, cluster id) order.
    first = np.minimum.reduceat(by, starts)
    entry_order = np.lexsort((clusters, dist[first], rows[first]))
    new = entry_order[~is_pt[entry_order]]
    row_of_group = pt_visit.copy()
    row_of_group[new] = m + np.arange(len(new))
    winners = by[starts[new]]
    return _OffRoute(
        cluster=clusters[new].astype(np.int64),
        eta=eta_min[new],
        detour=det[winners],
        winner=rows[winners],
        pt_row=pt_visit[is_pt],
        pt_eta=eta_min[is_pt],
        pair_row=row_of_group[np.cumsum(is_start) - 1],
        pair_visit=rows[by],
    )


def _pass_through_visits(region: DiscretizedRegion, ride: Ride) -> _Visits:
    """First-encounter cluster visits along the ride's route, in route order."""
    visits = _Visits([], [], [], [], [])
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
        visits.cluster.append(cluster_id)
        visits.segment.append(segment)
        visits.eta.append(ride.eta_at_index(route_index))
        visits.offset.append(ride.offset_at_index(route_index))
        visits.landmark.append(landmark_id)
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


def _segment_meta(
    region: DiscretizedRegion, ride: Ride
) -> Tuple[np.ndarray, np.ndarray]:
    """Landmark-level segment descriptors for detour estimation:
    ``(start, end)`` landmarks (-1 when none) and on-route lengths."""
    landmarks: List[Tuple[int, int]] = []
    lengths: List[float] = []
    for segment_index in range(ride.n_segments):
        start, end = ride.segment_bounds(segment_index)
        start_hit = region.landmark_of_node(ride.route[start])
        end_hit = region.landmark_of_node(ride.route[end])
        landmarks.append(
            (start_hit[0] if start_hit else -1, end_hit[0] if end_hit else -1)
        )
        lengths.append(ride.offset_at_index(end) - ride.offset_at_index(start))
    # A ride has at least one segment, so the landmark block is n x 2.
    return np.array(landmarks, dtype=np.int64), np.array(lengths, dtype=np.float64)


def _via_landmark(
    region: DiscretizedRegion,
    ride: Ride,
    segment_index: int,
    visits: _Visits,
) -> int:
    """Landmark standing in for via-point ``segment_index + 1``; falls back
    to the segment's (or ride's) last pass-through landmark, else -1."""
    via_node = ride.via_points[segment_index + 1].node
    hit = region.landmark_of_node(via_node)
    if hit is not None:
        return hit[0]
    segment_visits = [
        landmark
        for segment, landmark in zip(visits.segment, visits.landmark)
        if segment == segment_index
    ]
    if segment_visits:
        return segment_visits[-1]
    return visits.landmark[-1] if visits.landmark else -1
