"""Data model of the discretized region.

:class:`DiscretizedRegion` is the read-only product of pre-processing and the
single source of truth for every runtime operation: point→grid→landmark→
cluster resolution, walkable-cluster lists, and the landmark / cluster
distance matrices that let the runtime avoid shortest-path computation
entirely during search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import XARConfig
from ..exceptions import DiscretizationError, UncoveredLocationError
from ..geo import GeoPoint, GridCell, GridIndex
from ..landmarks import Landmark
from ..roadnet import RoadNetwork
from ..clustering import DistanceMatrix


@dataclass(frozen=True)
class Cluster:
    """A cluster: a set of landmarks, nothing more (paper emphasises a
    cluster is *not* a bounded region)."""

    cluster_id: int
    landmark_ids: Tuple[int, ...]
    center_landmark: int

    def __post_init__(self):
        if not self.landmark_ids:
            raise ValueError("a cluster must contain at least one landmark")
        if self.center_landmark not in self.landmark_ids:
            raise ValueError("center landmark must belong to the cluster")


class WalkOption(NamedTuple):
    """One entry of a grid's walkable-cluster list: ⟨C, w⟩ plus the landmark
    realising w (the nearest landmark of C to the grid)."""

    cluster_id: int
    walk_m: float
    landmark_id: int


class WalkColumns(NamedTuple):
    """A walkable-cluster list with its fields as parallel read-only arrays
    (what the flat search kernel gathers through), cached together."""

    options: List[WalkOption]
    walk_m: np.ndarray
    cluster_id: np.ndarray
    landmark_id: np.ndarray

    @classmethod
    def of(cls, options: List[WalkOption]) -> "WalkColumns":
        columns = (
            np.array([o.walk_m for o in options], dtype=np.float64),
            np.array([o.cluster_id for o in options], dtype=np.int64),
            np.array([o.landmark_id for o in options], dtype=np.int64),
        )
        for column in columns:  # thread shards share one region
            column.setflags(write=False)
        return cls(options, *columns)


class DiscretizedRegion:
    """The complete three-tier discretization of a city.

    Built once by :func:`~repro.discretization.builder.build_region`; all
    methods are read-only and cheap (dictionary lookups / cached lists), as
    required for the search-optimized runtime.
    """

    def __init__(
        self,
        config: XARConfig,
        network: RoadNetwork,
        grid: GridIndex,
        landmarks: Sequence[Landmark],
        clusters: Sequence[Cluster],
        landmark_matrix: DistanceMatrix,
        node_landmark: Dict[int, Tuple[int, float]],
        epsilon_realised: float,
    ):
        self.config = config
        self.network = network
        self.grid = grid
        self.landmarks = list(landmarks)
        self.clusters = list(clusters)
        self.landmark_matrix = landmark_matrix
        #: node -> (nearest landmark id, driving distance), only for nodes
        #: within Δ of some landmark.
        self._node_landmark = node_landmark
        #: Realised worst intra-cluster distance (≤ 4δ by Theorem 6).
        self.epsilon_realised = epsilon_realised

        self._landmark_cluster: Dict[int, int] = {}
        for cluster in self.clusters:
            for lid in cluster.landmark_ids:
                if lid in self._landmark_cluster:
                    raise DiscretizationError(
                        f"landmark {lid} assigned to two clusters"
                    )
                self._landmark_cluster[lid] = cluster.cluster_id
        missing = set(range(len(self.landmarks))) - set(self._landmark_cluster)
        if missing:
            raise DiscretizationError(
                f"landmarks without a cluster: {sorted(missing)[:5]}..."
            )

        self._cluster_matrix = self._build_cluster_matrix()
        #: (cell, threshold or None for the system W) -> walkable list.
        self._walkable_cache: Dict[Tuple[GridCell, Optional[float]], WalkColumns] = {}
        self._landmark_buckets = self._bucket_landmarks()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_cluster_matrix(self) -> np.ndarray:
        """k x k matrix of cluster distances = min landmark cross distance.

        Row i is cluster i's landmark rows reduced to one row minimum, whose
        columns, put in cluster order, are reduced per cluster.  ``min`` is
        exact, so the order of reduction cannot move a bit, and the scratch
        is one cluster's rows: no L x L (or k x L) copy is ever made."""
        members = [
            np.asarray(cluster.landmark_ids, dtype=np.intp) for cluster in self.clusters
        ]
        values = self.landmark_matrix.values
        order = np.concatenate(members)
        starts = np.cumsum([0] + [ids.size for ids in members[:-1]])
        matrix = np.empty((len(members), len(members)), dtype=np.float64)
        for i, ids in enumerate(members):
            np.minimum.reduceat(values[ids].min(axis=0)[order], starts, out=matrix[i])
        # The reachability kernel indexes it directly and thread shards
        # share one region: nobody gets to write to it.
        matrix.setflags(write=False)
        return matrix

    def _bucket_landmarks(self) -> Dict[GridCell, List[int]]:
        """Spatial hash of landmarks at W resolution for walk queries."""
        side = max(self.config.max_walk_m, self.config.grid_side_m)
        self._walk_grid = GridIndex(self.grid.bbox, side)
        buckets: Dict[GridCell, List[int]] = {}
        for landmark in self.landmarks:
            cell = self._walk_grid.cell_of(landmark.position)
            buckets.setdefault(cell, []).append(landmark.landmark_id)
        return buckets

    # ------------------------------------------------------------------
    # Hierarchy resolution
    # ------------------------------------------------------------------
    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cell_of(self, point: GeoPoint) -> GridCell:
        """Point → unique grid (Definition 1)."""
        return self.grid.cell_of(point)

    def cluster_of_landmark(self, landmark_id: int) -> int:
        return self._landmark_cluster[landmark_id]

    def landmark_of_node(self, node: int) -> Optional[Tuple[int, float]]:
        """Nearest landmark (id, driving distance) of a road node, if within Δ."""
        return self._node_landmark.get(node)

    def nearest_landmark(self, point: GeoPoint) -> Optional[Tuple[int, float]]:
        """Grid → landmark association via the grid's nearest road node.

        Returns ``None`` for grids farther than Δ driving distance from every
        landmark (remote locations — the paper leaves these unassociated).
        """
        cell = self.cell_of(point)
        centroid = self.grid.centroid_of(cell)
        node = self.network.snap(centroid)
        hit = self._node_landmark.get(node)
        if hit is None:
            return None
        # The grid's driving distance includes getting from the grid to the
        # road network; a centroid far off-network (remote location) exceeds
        # Δ and stays unassociated, as Section IV prescribes.
        landmark_id, node_distance = hit
        gap = centroid.distance_to(self.network.position(node))
        total = node_distance + gap
        if total > self.config.grid_landmark_max_m:
            return None
        return (landmark_id, total)

    def cluster_of_point(self, point: GeoPoint) -> Optional[int]:
        """Point → grid → landmark → cluster, or ``None`` when unassociated."""
        hit = self.nearest_landmark(point)
        if hit is None:
            return None
        landmark_id, _distance = hit
        return self._landmark_cluster[landmark_id]

    # ------------------------------------------------------------------
    # Walkable clusters (Section IV)
    # ------------------------------------------------------------------
    def walk_distance(self, point: GeoPoint, landmark_id: int) -> float:
        """Estimated walking distance point → landmark (haversine x circuity)."""
        landmark = self.landmarks[landmark_id]
        return point.distance_to(landmark.position) * self.config.walk_circuity

    def walkable_clusters(
        self,
        point: GeoPoint,
        max_walk_m: Optional[float] = None,
    ) -> List[WalkOption]:
        """The grid's walkable-cluster list, optionally pruned to a request's
        threshold (a copy the caller may keep or reorder)."""
        return list(self.walkable_columns(point, max_walk_m).options)

    def walkable_columns(
        self,
        point: GeoPoint,
        max_walk_m: Optional[float] = None,
    ) -> WalkColumns:
        """The walkable-cluster list and its column arrays, shared — do not
        mutate.

        The full list (threshold = system W) is cached per grid cell, exactly
        as the paper precomputes it.  Pruned lists are cached per
        (cell, threshold) too: request thresholds come from a handful of
        workload-level settings, and a sharded service prunes the same cell
        once per consulted shard on its search hot path.
        """
        cell = self.cell_of(point)
        if max_walk_m is not None and max_walk_m >= self.config.max_walk_m:
            max_walk_m = None
        key = (cell, max_walk_m)
        columns = self._walkable_cache.get(key)
        if columns is None:
            if max_walk_m is None:
                options = self._compute_walkable(self.grid.centroid_of(cell))
            else:  # sorted ascending: stop at the first exceedance
                options = list(takewhile(
                    lambda option: option.walk_m <= max_walk_m,
                    self.walkable_columns(point).options,
                ))
            columns = self._walkable_cache[key] = WalkColumns.of(options)
        return columns

    def _compute_walkable(self, centroid: GeoPoint) -> List[WalkOption]:
        best: Dict[int, Tuple[float, int]] = {}
        cx, cy = self._walk_grid.cell_of(centroid)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for landmark_id in self._landmark_buckets.get((cx + dx, cy + dy), ()):
                    walk = self.walk_distance(centroid, landmark_id)
                    if walk > self.config.max_walk_m:
                        continue
                    cluster_id = self._landmark_cluster[landmark_id]
                    current = best.get(cluster_id)
                    # Tie-break equal walk distances by landmark id so the
                    # chosen representative is independent of bucket
                    # iteration order — any exhaustive rescan (the
                    # verification oracle) lands on the same landmark.
                    if current is None or (walk, landmark_id) < current:
                        best[cluster_id] = (walk, landmark_id)
        options = [
            WalkOption(cluster_id=cid, walk_m=walk, landmark_id=lid)
            for cid, (walk, lid) in best.items()
        ]
        options.sort(key=lambda option: (option.walk_m, option.cluster_id))
        return options

    # ------------------------------------------------------------------
    # Cluster-level distances (what makes search shortest-path free)
    # ------------------------------------------------------------------
    def cluster_distance(self, a: int, b: int) -> float:
        """Distance between clusters: closest landmark pair (Section VI)."""
        return float(self._cluster_matrix[a, b])

    def clusters_within(self, cluster_id: int, radius_m: float) -> List[Tuple[int, float]]:
        """All clusters within ``radius_m`` of ``cluster_id`` (incl. itself),
        as (cluster id, distance) sorted by distance."""
        row = self._cluster_matrix[cluster_id]
        within = np.nonzero(row <= radius_m)[0]
        out = [(int(c), float(row[c])) for c in within]
        out.sort(key=lambda pair: (pair[1], pair[0]))
        return out

    @property
    def cluster_matrix(self) -> np.ndarray:
        """The k x k cluster distance matrix (read-only: writes raise)."""
        return self._cluster_matrix

    def require_covered(self, point: GeoPoint) -> None:
        """Raise :class:`UncoveredLocationError` if the point can neither be
        associated with a landmark nor walk to any cluster (Section IV: such
        requests "will not be served")."""
        if self.cluster_of_point(point) is not None:
            return
        if self.walkable_clusters(point):
            return
        raise UncoveredLocationError(
            f"location {point} is outside driving range Δ of all landmarks "
            f"and walking range W of all clusters"
        )
