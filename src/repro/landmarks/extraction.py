"""Landmark extraction: significance pruning + f-separation (Definition 2).

A landmark is a point of interest "sufficiently far (at least a pre-specified
f distance away) from any other landmark".  Extraction therefore:

1. keeps POIs whose importance clears a threshold (the paper's pruning of
   small stores: 30k POIs -> 16k landmarks),
2. greedily enforces the minimum pairwise separation ``f``, scanning POIs in
   decreasing importance so the most significant POI in a crowded block wins,
3. snaps each surviving landmark to its nearest road node, because every
   driving distance in the system is measured on the road graph.

The separation filter uses a spatial hash, so extraction is near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import DiscretizationError
from ..geo import BoundingBox, GeoPoint, GridIndex
from ..roadnet import RoadNetwork
from .pois import POI


@dataclass(frozen=True)
class Landmark:
    """A filtered landmark, snapped to a road node.

    ``landmark_id`` is the index in the system's landmark ordering — the
    paper breaks grid-association ties by "the lowest number in an ordering
    imposed on the set of landmarks", and this id is that ordering.
    """

    landmark_id: int
    position: GeoPoint
    node: int
    category: str
    importance: float


def filter_by_separation(
    pois: Iterable[POI],
    min_separation_m: float,
) -> List[POI]:
    """Greedy maximal subset with pairwise distance >= ``min_separation_m``.

    POIs are scanned in decreasing importance (ties by id for determinism), so
    the most significant POI of any crowded neighbourhood is retained.
    """
    if min_separation_m <= 0:
        raise ValueError(f"min_separation_m must be > 0, got {min_separation_m!r}")
    ordered = sorted(pois, key=lambda p: (-p.importance, p.poi_id))
    if not ordered:
        return []
    bbox = BoundingBox.around((p.position for p in ordered), 0.001)
    hash_grid = GridIndex(bbox, min_separation_m)
    kept: List[POI] = []
    buckets: Dict[Tuple[int, int], List[POI]] = {}
    for poi in ordered:
        cell = hash_grid.cell_of(poi.position)
        cx, cy = cell
        conflict = False
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    if other.position.distance_to(poi.position) < min_separation_m:
                        conflict = True
                        break
                if conflict:
                    break
            if conflict:
                break
        if not conflict:
            kept.append(poi)
            buckets.setdefault(cell, []).append(poi)
    return kept


def extract_landmarks(
    pois: Iterable[POI],
    network: RoadNetwork,
    min_separation_m: float,
    importance_threshold: float = 0.5,
    max_landmarks: Optional[int] = None,
) -> List[Landmark]:
    """Full extraction pipeline: prune, separate, snap.

    Raises :class:`~repro.exceptions.DiscretizationError` when nothing
    survives — a system with zero landmarks cannot serve any request.
    """
    if not (0.0 <= importance_threshold <= 1.0):
        raise ValueError(
            f"importance_threshold out of [0,1]: {importance_threshold!r}"
        )
    significant = [p for p in pois if p.importance >= importance_threshold]
    separated = filter_by_separation(significant, min_separation_m)
    if max_landmarks is not None:
        separated = separated[:max_landmarks]
    if not separated:
        raise DiscretizationError(
            "no landmarks survived extraction; lower importance_threshold or "
            "min_separation_m"
        )
    landmarks: List[Landmark] = []
    for index, poi in enumerate(separated):
        landmarks.append(
            Landmark(
                landmark_id=index,
                position=poi.position,
                node=network.snap(poi.position),
                category=poi.category.value,
                importance=poi.importance,
            )
        )
    return landmarks
