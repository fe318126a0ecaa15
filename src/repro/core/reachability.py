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

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..discretization import DiscretizedRegion
from ..index import RideIndexEntry
from .ride import Ride


class _Visits(NamedTuple):
    """Pass-through visits as parallel arrays, in route order."""

    cluster: np.ndarray
    segment: np.ndarray
    eta: np.ndarray
    offset: np.ndarray
    landmark: np.ndarray


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
    geometry = ride.geometry
    vias = np.array([via.route_index for via in ride.via_points], dtype=np.intp)
    node_landmark, node_cluster = region.landmarks_at(geometry.route)
    visits = _pass_through_visits(ride, vias, node_landmark, node_cluster)
    c, segment, eta, offset, landmark = visits
    m = len(c)
    via_landmark, via_cluster = _via_stand_ins(visits, vias, node_landmark, node_cluster)
    # Pass-through clusters serve requests with zero cluster-level detour,
    # each supported by its own visit; their rows come first, in route order.
    clusters = c
    reach_eta = eta.copy()
    detour = np.zeros(m)
    support_lm = landmark
    via_lm = via_landmark[segment]
    supports = np.eye(m, dtype=bool)
    off = None
    if m and ride.detour_limit_m > 0:
        off = _off_route(region, ride.detour_limit_m, c, eta, via_cluster[segment])
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
    # Landmark-level segment descriptors for detour estimation: (start, end)
    # landmarks (-1 when none) and on-route lengths.  A ride has at least
    # one segment, so the landmark block is n x 2.
    offsets = geometry.offsets_m
    return RideIndexEntry(
        ride.ride_id,
        np.column_stack((eta, offset)),
        np.column_stack((c, segment, landmark)),
        np.column_stack((reach_eta, detour)),
        np.column_stack((clusters, support_lm, via_lm)),
        supports,
        node_landmark[vias.repeat(2)[1:-1].reshape(-1, 2)],
        offsets[vias[1:]] - offsets[vias[:-1]],
    )


def _off_route(
    region: DiscretizedRegion,
    limit: float,
    c: np.ndarray,
    visit_eta: np.ndarray,
    via: np.ndarray,
) -> Optional[_OffRoute]:
    """Every cluster within the detour ``limit`` of a visit — all (visit,
    candidate) detour tests in one array pass; None when no pair passes.
    ``via`` is the cluster standing in for each visit's segment-end
    via-point.

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
    D = region.cluster_matrix
    m = len(c)
    c = c.astype(np.intp)
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


def _pass_through_visits(
    ride: Ride,
    vias: np.ndarray,
    node_landmark: np.ndarray,
    node_cluster: np.ndarray,
) -> _Visits:
    """First-encounter cluster visits along the ride's route, in route order.

    ``vias`` are the via-points' route indices, and ``node_landmark`` /
    ``node_cluster`` the landmark and cluster of every route node."""
    clusters = node_cluster.tolist()
    # Fed the route backwards, a dict ends up holding each cluster's
    # earliest route index (-1 stands for "no landmark" and is dropped).
    first = dict(zip(reversed(clusters), range(len(clusters) - 1, -1, -1)))
    first.pop(-1, None)
    at = np.array(sorted(first.values()), dtype=np.intp)
    # ``ride.segment_of_route_index``: the first segment ending past the
    # index, else the last segment.
    segment = np.minimum(vias[1:].searchsorted(at, "right"), len(vias) - 2)
    geometry = ride.geometry
    return _Visits(
        node_cluster[at],
        segment,
        ride.departure_s + geometry.times_s[at],
        geometry.offsets_m[at],
        node_landmark[at],
    )


def _via_stand_ins(
    visits: _Visits,
    vias: np.ndarray,
    node_landmark: np.ndarray,
    node_cluster: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Landmark and cluster standing in for each segment's end via-point in
    the detour test: its own, when its node has a landmark.  Otherwise the
    landmark falls back to the segment's last pass-through visit, else the
    ride's last visit, else -1; the cluster to the segment's last visit
    (read only for segments that have visits)."""
    ends = vias[1:]
    landmark = node_landmark[ends].tolist()
    cluster = node_cluster[ends].tolist()
    visit_landmark = visits.landmark.tolist()
    visit_cluster = visits.cluster.tolist()
    # Segments ascend along the visits: the dict keeps each one's last.
    last = dict(zip(visits.segment.tolist(), range(len(visit_landmark))))
    for segment, found in enumerate(landmark):
        if found < 0:
            visit = last.get(segment)
            if visit is not None:
                landmark[segment] = visit_landmark[visit]
                cluster[segment] = visit_cluster[visit]
            elif visit_landmark:
                landmark[segment] = visit_landmark[-1]
    return np.array(landmark, dtype=np.int64), np.array(cluster, dtype=np.int64)
