"""Offline pre-processing pipeline (the paper's "XAR pre-processing unit").

Steps, mirroring Section III / IV:

1. grid the region (implicit 100 m squares over the network bounding box),
2. extract landmarks (POI synthesis → significance pruning → f-separation),
3. associate every road node — hence every grid — with its nearest landmark
   within driving distance Δ, using one multi-source Dijkstra over the
   reversed graph (distance measured *from* the grid *to* the landmark),
4. fill the landmark driving-distance matrix (one many-source shortest-path
   run over all landmarks at once, ``many_source_distances``),
5. run GREEDYSEARCH for the target δ to form clusters (Theorem 6 guarantees
   k_ALG ≤ k_OPT and intra-cluster ≤ 4δ = ε).

The result is a ready-to-serve :class:`~repro.discretization.model.DiscretizedRegion`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import XARConfig
from ..exceptions import DiscretizationError
from ..geo import GridIndex
from ..landmarks import Landmark, extract_landmarks, synthesize_pois
from ..roadnet import RoadNetwork
from ..roadnet.shortest_path import multi_source_nearest_reverse
from ..clustering import (
    greedy_search,
    landmark_distance_matrix,
)
from .model import Cluster, DiscretizedRegion


def build_region(
    network: RoadNetwork,
    config: Optional[XARConfig] = None,
    landmarks: Optional[Sequence[Landmark]] = None,
    poi_seed: int = 11,
    poi_rate: float = 0.8,
) -> DiscretizedRegion:
    """Build the full three-tier discretization of a city.

    If ``landmarks`` is not supplied, POIs are synthesised from the network
    and run through the extraction pipeline with the config's ``f``.
    """
    config = config or XARConfig.validated()
    config.validate()

    if landmarks is None:
        pois = synthesize_pois(network, per_node_rate=poi_rate, seed=poi_seed)
        landmarks = extract_landmarks(
            pois, network, min_separation_m=config.landmark_separation_m
        )
    landmarks = list(landmarks)
    if not landmarks:
        raise DiscretizationError("cannot build a region with zero landmarks")
    _validate_landmark_ids(landmarks)

    grid = GridIndex(network.bounding_box(), config.grid_side_m)

    # Grid -> landmark association within Δ: one multi-source pass on the
    # reversed graph labels each node with the landmark it can *reach* most
    # cheaply, which is the driving distance "of the grid from the landmark".
    # Ties between equidistant landmarks resolve to the lowest landmark id
    # (the paper's ordering rule) because sources are pushed in id order and
    # heap pops are stable on (distance, node, origin).
    landmark_nodes = [lm.node for lm in landmarks]
    node_label = multi_source_nearest_reverse(
        network, landmark_nodes, cutoff=config.grid_landmark_max_m
    )
    node_to_landmark_id = {}
    node_owner = {}
    for lm in landmarks:
        # Several landmarks can snap to one node; keep the lowest id, which
        # is the paper's tie-break.
        if lm.node not in node_owner:
            node_owner[lm.node] = lm.landmark_id
    for node, (origin_node, distance) in node_label.items():
        node_to_landmark_id[node] = (node_owner[origin_node], distance)

    matrix = landmark_distance_matrix(network, landmarks)
    clustering = greedy_search(matrix, config.delta_m)

    clusters: List[Cluster] = []
    for cluster_index, (members, center) in enumerate(
        zip(clustering.clusters, clustering.centers)
    ):
        clusters.append(
            Cluster(
                cluster_id=cluster_index,
                landmark_ids=tuple(sorted(members)),
                center_landmark=center,
            )
        )

    return DiscretizedRegion(
        config=config,
        network=network,
        grid=grid,
        landmarks=landmarks,
        clusters=clusters,
        landmark_matrix=matrix,
        node_landmark=node_to_landmark_id,
        epsilon_realised=clustering.max_intra_distance,
    )


def _validate_landmark_ids(landmarks: Sequence[Landmark]) -> None:
    """Landmark ids must be exactly 0..n-1 (they index the matrices)."""
    ids = sorted(lm.landmark_id for lm in landmarks)
    if ids != list(range(len(landmarks))):
        raise DiscretizationError(
            "landmark ids must be contiguous 0..n-1; re-run extraction"
        )
