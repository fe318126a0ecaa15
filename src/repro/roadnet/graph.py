"""Directed road-network graph with geographic nodes.

Nodes are integers with a :class:`~repro.geo.point.GeoPoint` position
(OpenStreetMap calls these waypoints).  Edges are directed and carry a length
in metres and a speed in m/s.  The structure is adjacency-list based and
optimised for the access patterns of this library: Dijkstra expansion,
nearest-node snapping, and route tracing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import RoadNetworkError
from ..geo import BoundingBox, GeoPoint, GridIndex
from ..geo.point import EARTH_RADIUS_M


@dataclass(frozen=True)
class RoadEdge:
    """A directed road segment ``source -> target``."""

    source: int
    target: int
    length_m: float
    speed_mps: float

    def __post_init__(self):
        if self.length_m < 0:
            raise ValueError(f"edge length must be >= 0, got {self.length_m!r}")
        if self.speed_mps <= 0:
            raise ValueError(f"edge speed must be > 0, got {self.speed_mps!r}")

    @property
    def travel_seconds(self) -> float:
        """Free-flow traversal time of this edge."""
        return self.length_m / self.speed_mps


class RoadNetwork:
    """A directed, geographic road graph.

    The graph is mutable while being built (``add_node`` / ``add_edge``) and
    is then used read-only by the rest of the system.  ``snap`` queries are
    served by a lazily built spatial hash over nodes, the shortest-path
    kernels and route validation by a lazily built frozen adjacency; both
    are dropped by any mutation and rebuilt on the next query.
    """

    def __init__(self):
        self._positions: Dict[int, GeoPoint] = {}
        self._adjacency: Dict[int, List[RoadEdge]] = {}
        self._reverse: Dict[int, List[RoadEdge]] = {}
        self._edge_count = 0
        self._snap_index: Optional[_NodeSpatialHash] = None
        self._frozen: Optional[FrozenAdjacency] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: int, position: GeoPoint) -> None:
        """Add a node; re-adding with a new position is an error."""
        existing = self._positions.get(node)
        if existing is not None and existing != position:
            raise RoadNetworkError(
                f"node {node} already exists at {existing}, refusing to move it"
            )
        if existing is None:
            self._positions[node] = position
            self._adjacency[node] = []
            self._reverse[node] = []
            self._snap_index = None
            self._frozen = None

    def add_edge(
        self,
        source: int,
        target: int,
        length_m: Optional[float] = None,
        speed_mps: float = 11.0,
        bidirectional: bool = False,
    ) -> None:
        """Add a directed edge; ``length_m`` defaults to the haversine length.

        Set ``bidirectional=True`` to also add the reverse edge (two-way
        street).
        """
        for node in (source, target):
            if node not in self._positions:
                raise RoadNetworkError(f"edge endpoint {node} is not a node")
        if length_m is None:
            length_m = self._positions[source].distance_to(self._positions[target])
        edge = RoadEdge(source, target, length_m, speed_mps)
        self._adjacency[source].append(edge)
        self._reverse[target].append(edge)
        self._edge_count += 1
        self._frozen = None
        if bidirectional:
            self.add_edge(target, source, length_m, speed_mps, bidirectional=False)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> Iterator[int]:
        return iter(self._positions)

    def has_node(self, node: int) -> bool:
        return node in self._positions

    def position(self, node: int) -> GeoPoint:
        try:
            return self._positions[node]
        except KeyError:
            raise RoadNetworkError(f"unknown node {node}") from None

    def out_edges(self, node: int) -> Sequence[RoadEdge]:
        try:
            return self._adjacency[node]
        except KeyError:
            raise RoadNetworkError(f"unknown node {node}") from None

    def in_edges(self, node: int) -> Sequence[RoadEdge]:
        try:
            return self._reverse[node]
        except KeyError:
            raise RoadNetworkError(f"unknown node {node}") from None

    def edges(self) -> Iterator[RoadEdge]:
        for edges in self._adjacency.values():
            yield from edges

    def bounding_box(self, margin_deg: float = 0.001) -> BoundingBox:
        """Bounding box of all node positions, slightly padded."""
        if not self._positions:
            raise RoadNetworkError("bounding box of an empty network")
        return BoundingBox.around(self._positions.values(), margin_deg)

    # ------------------------------------------------------------------
    # Spatial snapping
    # ------------------------------------------------------------------
    def snap(self, point: GeoPoint) -> int:
        """Nearest node to a point (by great-circle distance)."""
        if not self._positions:
            raise RoadNetworkError("cannot snap on an empty network")
        if self._snap_index is None:
            self._snap_index = _NodeSpatialHash(self._positions)
        return self._snap_index.nearest(point)

    def route_length_m(self, nodes: Sequence[int]) -> float:
        """Length of a node path, validating every hop is a real edge."""
        return self._route_total(nodes, 0)

    def route_time_s(self, nodes: Sequence[int]) -> float:
        """Free-flow traversal time of a node path."""
        return self._route_total(nodes, 1)

    def _route_total(self, nodes: Sequence[int], column: int) -> float:
        """Sum one column of the ``(length_m, travel_s)`` hop table along a
        node path, hop by hop in route order."""
        hops = self.frozen().hops
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            hop = hops.get((a, b))
            if hop is None:
                raise RoadNetworkError(f"no edge {a} -> {b} on claimed route")
            total += hop[column]
        return total

    # ------------------------------------------------------------------
    # Frozen adjacency (what the shortest-path kernels iterate)
    # ------------------------------------------------------------------
    def frozen(self) -> "FrozenAdjacency":
        """The graph's frozen adjacency, built on first use after a mutation.

        Built completely before it is published with one attribute
        assignment, so threads racing the lazy build each get a complete
        structure (the loser's copy is identical and simply dropped).
        """
        frozen = self._frozen
        if frozen is None:
            frozen = FrozenAdjacency(self._positions, self._adjacency)
            self._frozen = frozen
        return frozen


class FrozenAdjacency:
    """Immutable, array-indexed view of a :class:`RoadNetwork`.

    Derived from the graph alone — no query result is ever stored here.
    Nodes are renumbered ``0..n-1`` in ascending id order, so the kernels
    keep their per-query state in flat lists instead of dicts, and a heap
    entry ``(distance, index)`` ties exactly like ``(distance, node id)``.

    * ``ids[i]`` / ``index[node]`` — dense index <-> node id;
    * ``out[i]`` — node ``i``'s out-edges in insertion order, each a
      ``(target index, length_m, travel_s)`` tuple: the inner loop of a
      kernel is a tuple unpack, not attribute and property lookups;
    * ``coords[i]`` — ``(lat, lon, cos(radians(lat)))``: the per-node half
      of the haversine formula, hoisted out of the A* heuristic;
    * ``hops[(a, b)]`` — ``(length_m, travel_s)`` of the *first* edge
      ``a -> b`` by node id (parallel edges keep first-match semantics);
    * ``bound_scale`` — the largest ``c <= 1`` with ``c x great-circle <=
      length_m`` on every edge: scaled by it, the great-circle distance is a
      consistent A* heuristic even where a road undercuts it (1.0 whenever
      no edge is shorter than its great circle);
    * ``csr()`` / ``csr(reverse=True)`` — the out- (in-) edges as
      compressed sparse rows, built on first use: what the many-source
      kernel gathers through.
    """

    __slots__ = ("ids", "index", "out", "coords", "hops", "bound_scale", "_csr")

    def __init__(
        self,
        positions: Dict[int, GeoPoint],
        adjacency: Dict[int, List[RoadEdge]],
    ):
        ids = sorted(positions)
        index = {node: i for i, node in enumerate(ids)}
        out: List[Tuple[Tuple[int, float, float], ...]] = []
        hops: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for node in ids:
            packed = []
            for edge in adjacency[node]:
                weights = (edge.length_m, edge.travel_seconds)
                hops.setdefault((node, edge.target), weights)
                packed.append((index[edge.target], *weights))
            out.append(tuple(packed))
        self.ids = ids
        self.index = index
        self.out = out
        self.coords = [
            (pos.lat, pos.lon, math.cos(math.radians(pos.lat)))
            for pos in map(positions.__getitem__, ids)
        ]
        self.hops = hops
        self.bound_scale = _bound_scale(out, self.coords)
        self._csr: Dict[bool, EdgeRows] = {}

    def csr(self, reverse: bool = False) -> "EdgeRows":
        """Edges grouped by tail (head, with ``reverse``) in dense order.

        Published with one dict assignment once complete, so threads racing
        the lazy build each get a complete structure."""
        rows = self._csr.get(reverse)
        if rows is None:
            rows = self._csr[reverse] = EdgeRows.of(self.out, reverse)
        return rows


def _bound_scale(out: List[Tuple[Tuple[int, float, float], ...]],
                 coords: List[Tuple[float, float, float]]) -> float:
    """``min(1, min length_m / great-circle)`` over edges whose great circle
    is > 0.  The great circle is ``haversine_m``'s float for float (with
    cos(lat) hoisted, as in A*), so a graph whose lengths are the defaults
    ``add_edge`` measures scales by exactly 1.0."""
    radians, sin, sqrt, asin = math.radians, math.sin, math.sqrt, math.asin
    diameter = 2.0 * EARTH_RADIUS_M
    scale = 1.0
    for (lat, lon, cos_lat), edges in zip(coords, out):
        for j, length_m, _travel_s in edges:
            to_lat, to_lon, to_cos = coords[j]
            a = (
                sin(radians(to_lat - lat) / 2.0) ** 2
                + cos_lat * to_cos * sin(radians(to_lon - lon) / 2.0) ** 2
            )
            crow = diameter * asin(min(1.0, sqrt(a)))
            if crow > 0.0:
                scale = min(scale, length_m / crow)
    return scale


class EdgeRows(NamedTuple):
    """A graph's edges as compressed sparse rows over dense node indices:
    row ``i`` is ``offsets[i]:offsets[i + 1]`` of ``target`` (the other
    endpoint), ``length_m`` and ``travel_s``, in the order of ``out``."""

    offsets: np.ndarray
    target: np.ndarray
    length_m: np.ndarray
    travel_s: np.ndarray

    @classmethod
    def of(cls, out: List[Tuple[Tuple[int, float, float], ...]],
           reverse: bool) -> "EdgeRows":
        n = len(out)
        tail = np.repeat(np.arange(n, dtype=np.intp), [len(edges) for edges in out])
        flat = [edge for edges in out for edge in edges]
        head = np.array([edge[0] for edge in flat], dtype=np.intp)
        length_m = np.array([edge[1] for edge in flat], dtype=np.float64)
        travel_s = np.array([edge[2] for edge in flat], dtype=np.float64)
        if reverse:
            order = np.argsort(head, kind="stable")
            tail, head = head[order], tail[order]
            length_m, travel_s = length_m[order], travel_s[order]
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(tail, minlength=n), out=offsets[1:])
        columns = cls(offsets, head, length_m, travel_s)
        for column in columns:  # thread shards share one network
            column.setflags(write=False)
        return columns


class _NodeSpatialHash:
    """Bucket nodes into ~250 m grid cells for nearest-node queries."""

    _CELL_M = 250.0

    def __init__(self, positions: Dict[int, GeoPoint]):
        self._positions = positions
        self._grid = GridIndex(BoundingBox.around(positions.values(), 0.001), self._CELL_M)
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        for node, pos in positions.items():
            self._buckets.setdefault(self._grid.cell_of(pos), []).append(node)

    def nearest(self, point: GeoPoint) -> int:
        cx, cy = self._grid.cell_of(point)
        # Points outside the network bounding box start from the nearest
        # in-region cell so ring expansion always finds the buckets.
        cx = min(max(cx, 0), self._grid.n_cols - 1)
        cy = min(max(cy, 0), self._grid.n_rows - 1)
        best_node = -1
        best_dist = float("inf")
        # Expand rings until we find a candidate, then one extra ring to be
        # safe against cell-boundary effects.
        max_radius = max(self._grid.n_cols, self._grid.n_rows) + 1
        found_at = None
        for radius in range(0, max_radius + 1):
            if found_at is not None and radius > found_at + 1:
                break
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    if max(abs(dx), abs(dy)) != radius:
                        continue
                    for node in self._buckets.get((cx + dx, cy + dy), ()):
                        dist = self._positions[node].distance_to(point)
                        if dist < best_dist:
                            best_dist = dist
                            best_node = node
            if best_node >= 0 and found_at is None:
                found_at = radius
        if best_node < 0:
            raise RoadNetworkError("spatial hash found no nodes")
        return best_node
