"""Optimized ride search (paper Section VII).

The two-step procedure, verbatim from the paper:

* **Step 1** — resolve the request's *source* grid, take its walkable
  clusters pruned to the request's walking threshold (linear scan of a
  sorted list), and for each such cluster binary-search its potential-ride
  list for rides whose ETA falls in the departure window → candidate set R1.
* **Step 2** — repeat from the *destination* → R2; the candidate set is the
  intersection R' = R1 ∩ R2.

Final checks on R': combined walking distance within the requester's limit,
combined (cluster-level) detour within the ride's remaining detour limit,
pickup strictly before drop-off, and a free seat.  **No shortest path is
computed anywhere on this path.**

The flat core (``repro.index.flat_index``, the default) applies the walk
check early as well: it cuts each end's walkable list to the options that
can pass it against the other end's nearest option, before step 1.  The
legacy per-object path here prunes by the threshold alone, so besides the
pre-flat reference it is the unpruned reference that shows the cut changes
no answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..discretization import WalkOption
from ..index import flat_index
from ..obs.trace import NULL_SPAN
from .request import RideRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import XAREngine


@dataclass(frozen=True)
class MatchOption:
    """One feasible ride match returned to the requester."""

    ride_id: int
    request_id: int
    #: Pickup: walk to this landmark of this cluster.
    pickup_cluster: int
    pickup_landmark: int
    walk_source_m: float
    #: Drop-off: ride leaves the requester at this landmark.
    dropoff_cluster: int
    dropoff_landmark: int
    walk_destination_m: float
    #: Estimated time the ride reaches the pickup cluster.
    eta_pickup_s: float
    eta_dropoff_s: float
    #: Cluster-level detour estimate charged to the ride (metres).
    detour_estimate_m: float

    @property
    def total_walk_m(self) -> float:
        return self.walk_source_m + self.walk_destination_m


def _build_match(
    ride_id: int,
    request_id: int,
    pickup_cluster: int,
    pickup_landmark: int,
    walk_source_m: float,
    dropoff_cluster: int,
    dropoff_landmark: int,
    walk_destination_m: float,
    eta_pickup_s: float,
    eta_dropoff_s: float,
    detour_estimate_m: float,
) -> MatchOption:
    """Build a MatchOption ~3x faster than the dataclass constructor.

    The frozen dataclass pays one guarded ``object.__setattr__`` per field;
    the flat search path builds tens of these per search, so it fills the
    instance dict directly instead.  Field set and semantics (eq/hash/repr)
    are identical — kwargs go through the same names ``__init__`` takes.
    """
    match = object.__new__(MatchOption)
    match.__dict__.update(
        ride_id=ride_id,
        request_id=request_id,
        pickup_cluster=pickup_cluster,
        pickup_landmark=pickup_landmark,
        walk_source_m=walk_source_m,
        dropoff_cluster=dropoff_cluster,
        dropoff_landmark=dropoff_landmark,
        walk_destination_m=walk_destination_m,
        eta_pickup_s=eta_pickup_s,
        eta_dropoff_s=eta_dropoff_s,
        detour_estimate_m=detour_estimate_m,
    )
    return match


#: Destination pass: probing one R1 ride's stored ETA (a dict lookup)
#: costs roughly this many ETA-tail scan iterations; the intersection picks
#: whichever strategy touches less.  Either strategy yields identical
#: candidates — this is purely a work bound.
_PROBE_COST_FACTOR = 2


def search_rides(
    engine: "XAREngine",
    request: RideRequest,
    k: Optional[int] = None,
    span=NULL_SPAN,
    peers: Sequence["XAREngine"] = (),
    best: Optional[List[Optional[float]]] = None,
) -> List[MatchOption]:
    """Find up to ``k`` feasible matches (all of them when ``k`` is None).

    Results are sorted by total walking distance (the simulation's booking
    policy picks the least-walk option, Section X-A2), ties broken by ETA.

    Two implementations produce identical results: the flat struct-of-arrays
    core (``engine.flat_index``, the default) and the legacy per-object scan
    over the cluster index (``XAREngine(use_flat_index=False)``, kept for
    differential comparison, and unpruned by the flat core's walk-budget
    cut).

    ``peers`` are more engines searched with this one — shards of one
    service, on disjoint ride-id lanes: the answer is the k-way merge of
    every engine's own search, by the rank key.  ``best``, when given, gets
    per engine (``engine`` first, then ``peers``) the detour estimate of the
    first match its own search would return, or keeps None where it would
    return nothing.

    ``span`` (a tracing span or the null span) times the five stages of the
    search — each entered **exactly once** per search: **snap** (grid-cell
    resolution + walkable-cluster pruning for both endpoints: to the walk
    threshold, and on the flat core to the combined walk budget),
    **cluster_lookup** (ETA-window lookup on the source side's potential-ride
    lists), **candidate_scan** (best-walk reduction into R1, then the
    destination-side R1 intersection and reduction into R2),
    **feasibility_filter** (seat/walk/order/detour validation) and
    **rank_merge** (final ordering and top-k cut).
    """
    engines = [engine, *peers]
    if getattr(engine, "flat_index", None) is not None and (
        not peers or all(peer.flat_index is not None for peer in peers)
    ):
        return flat_index.flat_search_rides(engines, request, k, span, best)
    batches = [_search_legacy(each, request, k, span) for each in engines]
    if best is not None:
        for e, batch in enumerate(batches):
            if batch:
                best[e] = batch[0].detour_estimate_m
    if not peers:
        return batches[0]
    merged = sorted(
        (match for batch in batches for match in batch),
        key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id),
    )
    return merged if k is None else merged[:k]


def _search_legacy(
    engine: "XAREngine",
    request: RideRequest,
    k: Optional[int],
    span,
) -> List[MatchOption]:
    """The original per-object two-step search over ``ClusterRideIndex``."""
    region = engine.region
    index = engine.cluster_index

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

    # Step 1: candidate rides near the source, keyed for the intersection.
    with span.stage("cluster_lookup"):
        source_lists = [
            (
                option,
                list(
                    index.rides_in_window(
                        option.cluster_id,
                        request.window_start_s,
                        request.window_end_s,
                    )
                ),
            )
            for option in source_options
        ]

    # ride id -> best (walk, WalkOption, eta) among the source clusters.
    candidates_src: Dict[int, Tuple[float, WalkOption, float]] = {}
    candidates_dst: Dict[int, Tuple[float, WalkOption, float]] = {}
    with span.stage("candidate_scan"):
        for option, potentials in source_lists:
            for potential in potentials:
                best = candidates_src.get(potential.ride_id)
                if best is None or option.walk_m < best[0]:
                    candidates_src[potential.ride_id] = (
                        option.walk_m,
                        option,
                        potential.eta_s,
                    )
        # Step 2: candidates near the destination.  The destination arrival
        # is later than the departure window by the trip duration; we accept
        # any ETA from window start onwards (drop-off has no hard deadline in
        # the paper).  Only rides already in R1 can survive the intersection,
        # so instead of scanning each destination cluster's entire ETA tail
        # we take the cheaper of (a) probing every R1 ride's stored ETA and
        # (b) the bounded tail scan — a hot cluster full of late-ETA rides no
        # longer costs O(tail).
        if candidates_src:
            window_start = request.window_start_s
            for option in destination_options:
                cluster_id = option.cluster_id
                tail = index.count_in_window(
                    cluster_id, window_start, float("inf")
                )
                if tail > _PROBE_COST_FACTOR * len(candidates_src):
                    for ride_id in candidates_src:
                        eta = index.eta(cluster_id, ride_id)
                        if eta is None or eta < window_start:
                            continue
                        best = candidates_dst.get(ride_id)
                        if best is None or option.walk_m < best[0]:
                            candidates_dst[ride_id] = (
                                option.walk_m,
                                option,
                                eta,
                            )
                else:
                    for potential in index.rides_in_window(
                        cluster_id, window_start, float("inf")
                    ):
                        if potential.ride_id not in candidates_src:
                            continue
                        best = candidates_dst.get(potential.ride_id)
                        if best is None or option.walk_m < best[0]:
                            candidates_dst[potential.ride_id] = (
                                option.walk_m,
                                option,
                                potential.eta_s,
                            )

    if not candidates_src:
        return []

    # Intersection + final validity checks.
    with span.stage("feasibility_filter"):
        matches = _filter_candidates(
            engine, request, candidates_src, candidates_dst
        )

    with span.stage("rank_merge"):
        matches.sort(key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id))
        if k is not None:
            return matches[:k]
        return matches


def _filter_candidates(
    engine: "XAREngine",
    request: RideRequest,
    candidates_src: Dict[int, Tuple[float, WalkOption, float]],
    candidates_dst: Dict[int, Tuple[float, WalkOption, float]],
) -> List[MatchOption]:
    """The search's feasibility stage: R1 ∩ R2 plus the final checks."""
    region = engine.region
    matches: List[MatchOption] = []
    for ride_id, (walk_dst, option_dst, eta_dst) in candidates_dst.items():
        walk_src, option_src, eta_src = candidates_src[ride_id]
        ride = engine.rides.get(ride_id)
        entry = engine.ride_entries.get(ride_id)
        if ride is None or entry is None:
            continue
        if ride.seats_available < 1:
            continue
        # Combined walking within the requester's threshold.
        if walk_src + walk_dst > request.walk_threshold_m:
            continue
        # Pickup must happen before drop-off.
        if eta_src >= eta_dst:
            continue
        # Same cluster at both ends means no actual ride leg.
        if option_src.cluster_id == option_dst.cluster_id:
            continue
        # Combined detour within the ride's remaining budget.  The coarse
        # (cluster-level) estimate gates feasibility exactly as stored in the
        # index; the landmark-level refinement (the landmark matrix is in
        # memory — still no shortest path computed) gives the number reported
        # to the user and measured in Fig. 3a.
        reachable = entry.reachable
        info_src = reachable.get(option_src.cluster_id)
        info_dst = reachable.get(option_dst.cluster_id)
        if info_src is None or info_dst is None:
            continue
        coarse = info_src.detour_estimate_m + info_dst.detour_estimate_m
        # The booking back-end will splice the pickup/drop-off into specific
        # segments; estimate the detour of exactly that splice at landmark
        # level (matrix lookups only).  Falls back to the coarse estimate
        # when a segment endpoint has no landmark.
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
        # Gate on the best available estimate: splice-accurate when segment
        # landmarks are known, cluster-level otherwise.  Still zero shortest
        # paths — everything reads the precomputed landmark matrix.
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
    return matches


def _splice_estimate(
    region,
    entry,
    segment_pickup: int,
    segment_dropoff: int,
    pickup_landmark: int,
    dropoff_landmark: int,
) -> Optional[float]:
    """Landmark-level estimate of the booking splice's detour.

    Same-segment bookings splice s₁→P→D→s₂; distinct segments splice each
    independently.  ``None`` when a via-point landmark is unknown (caller
    falls back to the coarse cluster-level estimate).
    """
    lengths = entry.segment_length_m.tolist()
    if not (0 <= segment_pickup < len(lengths)):
        return None
    if not (0 <= segment_dropoff < len(lengths)):
        return None
    p_start, p_end = entry.segment_landmarks[segment_pickup].tolist()
    d_start, d_end = entry.segment_landmarks[segment_dropoff].tolist()
    if min(p_start, p_end, d_start, d_end) < 0:
        return None
    distance = region.landmark_matrix.distance
    if segment_pickup == segment_dropoff:
        estimate = (
            distance(p_start, pickup_landmark)
            + distance(pickup_landmark, dropoff_landmark)
            + distance(dropoff_landmark, p_end)
            - lengths[segment_pickup]
        )
    else:
        estimate = (
            distance(p_start, pickup_landmark)
            + distance(pickup_landmark, p_end)
            - lengths[segment_pickup]
        ) + (
            distance(d_start, dropoff_landmark)
            + distance(dropoff_landmark, d_end)
            - lengths[segment_dropoff]
        )
    if estimate == float("inf") or estimate != estimate:
        return None
    return max(0.0, estimate)
