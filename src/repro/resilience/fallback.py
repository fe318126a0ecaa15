"""Degraded-mode search: T-Share-style direct scan, no cluster index.

When the cluster-level potential-ride lists are unavailable — circuit open
after repeated failures, or the index is suspected corrupt — requests can
still be served by scanning the live rides directly, exactly the way T-Share
resolves a query: resolve the request endpoints to grid-level walk options,
then test every ride's own reachability record against them.

This costs O(rides x walk options) per query instead of the optimized
O(log n + answer), but it reads only per-ride state (``ride_entries``),
bypassing the shared ``cluster_index`` entirely — which is what makes it a
meaningful degradation tier rather than a retry of the same failure.
Matches produced here are real :class:`~repro.core.search.MatchOption`
objects and book through the normal (transactional) path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..core.request import RideRequest
from ..core.search import MatchOption, _splice_estimate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import XAREngine


def grid_scan_search(
    engine: "XAREngine",
    request: RideRequest,
    k: Optional[int] = None,
) -> List[MatchOption]:
    """Cluster-index-free search over every live ride (degraded tier).

    Semantics match :func:`repro.core.search.search_rides` — same walk,
    window, ordering, seat and detour checks — but candidate generation
    iterates ``engine.ride_entries`` instead of the cluster index, so index
    corruption cannot hide (or fabricate) a match.
    """
    region = engine.region
    source_options = region.walkable_clusters(request.source, request.walk_threshold_m)
    if not source_options:
        return []
    destination_options = region.walkable_clusters(
        request.destination, request.walk_threshold_m
    )
    if not destination_options:
        return []

    matches: List[MatchOption] = []
    for ride_id, entry in engine.ride_entries.items():
        ride = engine.rides.get(ride_id)
        if ride is None or ride.seats_available < 1:
            continue
        # Best walkable source/destination clusters served by this ride,
        # with the ETA taken from the ride's own reachability record (the
        # same value the cluster index stores).
        reachable = entry.reachable
        best_src = best_dst = None
        for option in source_options:
            info = reachable.get(option.cluster_id)
            if info is None:
                continue
            if not (request.window_start_s <= info.eta_s <= request.window_end_s):
                continue
            if best_src is None or option.walk_m < best_src[0]:
                best_src = (option.walk_m, option, info.eta_s)
        if best_src is None:
            continue
        for option in destination_options:
            info = reachable.get(option.cluster_id)
            if info is None:
                continue
            if info.eta_s < request.window_start_s:
                continue
            if best_dst is None or option.walk_m < best_dst[0]:
                best_dst = (option.walk_m, option, info.eta_s)
        if best_dst is None:
            continue

        walk_src, option_src, eta_src = best_src
        walk_dst, option_dst, eta_dst = best_dst
        if walk_src + walk_dst > request.walk_threshold_m:
            continue
        if eta_src >= eta_dst:
            continue
        if option_src.cluster_id == option_dst.cluster_id:
            continue
        info_src = reachable[option_src.cluster_id]
        info_dst = reachable[option_dst.cluster_id]
        coarse = info_src.detour_estimate_m + info_dst.detour_estimate_m
        segment_pickup = entry.segment_for(option_src.cluster_id, earliest=True)
        segment_dropoff = entry.segment_for(option_dst.cluster_id, earliest=False)
        if segment_pickup is None or segment_dropoff is None:
            continue
        if segment_dropoff < segment_pickup:
            segment_dropoff = entry.segment_for(
                option_dst.cluster_id, earliest=False, at_least=segment_pickup
            )
            if segment_dropoff is None:
                continue
        detour = _splice_estimate(
            region,
            entry,
            segment_pickup,
            segment_dropoff,
            option_src.landmark_id,
            option_dst.landmark_id,
        )
        if detour is None:
            detour = coarse
        if detour > ride.detour_limit_m:
            continue
        matches.append(
            MatchOption(
                ride_id=ride_id,
                request_id=request.request_id,
                pickup_cluster=option_src.cluster_id,
                pickup_landmark=option_src.landmark_id,
                walk_source_m=walk_src,
                dropoff_cluster=option_dst.cluster_id,
                dropoff_landmark=option_dst.landmark_id,
                walk_destination_m=walk_dst,
                eta_pickup_s=eta_src,
                eta_dropoff_s=eta_dst,
                detour_estimate_m=detour,
            )
        )

    matches.sort(key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id))
    if k is not None:
        return matches[:k]
    return matches
