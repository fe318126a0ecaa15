"""Shortest-path algorithms over :class:`~repro.roadnet.graph.RoadNetwork`.

The paper's design principle is that shortest paths are computed only at ride
*creation* and *booking* time, never during search.  These are the routines
those operations use:

* :func:`dijkstra_all` — one-to-all distances (optionally early-terminated),
* :func:`dijkstra_path` — one-to-one distance + node path,
* :func:`bidirectional_dijkstra` — faster one-to-one distance queries,
* :func:`astar` — haversine-guided one-to-one path search,
* :func:`multi_source_nearest` — nearest-source labelling used by the
  discretization builder to associate every grid with its closest landmark in
  a single pass (instead of one Dijkstra per grid).

All distances are metres over edge lengths; time-weighted variants are
obtained by passing ``weight="time"``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..exceptions import NoPathError, RoadNetworkError
from ..geo.point import EARTH_RADIUS_M
from .graph import RoadEdge, RoadNetwork

_INF = float("inf")
#: ``2.0 * EARTH_RADIUS_M`` — the leading product of ``haversine_m``.
_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M

#: Edge weight selectors.
_WEIGHTS: Dict[str, Callable[[RoadEdge], float]] = {
    "length": lambda e: e.length_m,
    "time": lambda e: e.travel_seconds,
}


def _weight_fn(weight: str) -> Callable[[RoadEdge], float]:
    try:
        return _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"unknown weight {weight!r}, expected 'length' or 'time'")


#: Position of each weight in a frozen ``(target index, length_m, travel_s)`` edge.
_WEIGHT_COLUMNS: Dict[str, int] = {"length": 1, "time": 2}


def _weight_column(weight: str) -> int:
    try:
        return _WEIGHT_COLUMNS[weight]
    except KeyError:
        raise ValueError(f"unknown weight {weight!r}, expected 'length' or 'time'")


def dijkstra_all(
    network: RoadNetwork,
    source: int,
    weight: str = "length",
    cutoff: Optional[float] = None,
    targets: Optional[Set[int]] = None,
) -> Dict[int, float]:
    """One-to-all Dijkstra from ``source``.

    ``cutoff`` stops expanding beyond that distance; ``targets`` stops as soon
    as every target has been settled (whichever comes first).  Returns settled
    distances only.
    """
    frozen = network.frozen()
    start = frozen.index.get(source)
    if start is None:
        raise RoadNetworkError(f"unknown source node {source}")
    w = _weight_column(weight)
    ids, out = frozen.ids, frozen.out
    pop, push = heapq.heappop, heapq.heappush
    dist: Dict[int, float] = {}
    # Best pushed distance per node.  A push that does not improve it is
    # dominated by an entry already in the heap (same node, key <= its own),
    # so it could only ever pop as a stale duplicate: never pushing it
    # leaves the settle order — and so the result — unchanged.  Weights are
    # >= 0, so a settled node never improves and a popped entry is stale
    # exactly when it is worse than the node's best.
    seen = [_INF] * len(ids)
    seen[start] = 0.0
    remaining = set(targets) if targets is not None else None
    heap: List[Tuple[float, int]] = [(0.0, start)]
    while heap:
        d, i = pop(heap)
        if d > seen[i]:
            continue
        if cutoff is not None and d > cutoff:
            break
        node = ids[i]
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for edge in out[i]:
            j = edge[0]
            nd = d + edge[w]
            if nd < seen[j]:
                seen[j] = nd
                push(heap, (nd, j))
    return dist


def dijkstra_path(
    network: RoadNetwork,
    source: int,
    target: int,
    weight: str = "length",
) -> Tuple[float, List[int]]:
    """One-to-one Dijkstra returning ``(distance, node_path)``.

    Raises :class:`~repro.exceptions.NoPathError` if unreachable.
    """
    frozen = network.frozen()
    start, goal = _endpoints(frozen, source, target)
    if source == target:
        return 0.0, [source]
    w = _weight_column(weight)
    out = frozen.out
    pop, push = heapq.heappop, heapq.heappush
    n = len(out)
    seen = [_INF] * n
    seen[start] = 0.0
    parent = [start] * n
    heap: List[Tuple[float, int]] = [(0.0, start)]
    while heap:
        d, i = pop(heap)
        if d > seen[i]:
            continue  # stale: the node settled through a better entry
        if i == goal:
            return d, _trace(frozen.ids, parent, start, goal)
        for edge in out[i]:
            j = edge[0]
            nd = d + edge[w]
            if nd < seen[j]:
                seen[j] = nd
                parent[j] = i
                push(heap, (nd, j))
    raise NoPathError(source, target)


def _endpoints(frozen, source: int, target: int) -> Tuple[int, int]:
    """Dense indices of a query's endpoints, validating both exist."""
    start = frozen.index.get(source)
    if start is None:
        raise RoadNetworkError(f"unknown source node {source}")
    goal = frozen.index.get(target)
    if goal is None:
        raise RoadNetworkError(f"unknown target node {target}")
    return start, goal


def _trace(ids: List[int], parent: List[int], start: int, goal: int) -> List[int]:
    """Node-id path ``start .. goal`` from dense parent pointers."""
    path = [ids[goal]]
    i = goal
    while i != start:
        i = parent[i]
        path.append(ids[i])
    path.reverse()
    return path


def bidirectional_dijkstra(
    network: RoadNetwork,
    source: int,
    target: int,
    weight: str = "length",
) -> float:
    """Distance-only bidirectional Dijkstra (typically ~2x faster)."""
    if not network.has_node(source):
        raise RoadNetworkError(f"unknown source node {source}")
    if not network.has_node(target):
        raise RoadNetworkError(f"unknown target node {target}")
    if source == target:
        return 0.0
    wf = _weight_fn(weight)
    dist_f: Dict[int, float] = {}
    dist_b: Dict[int, float] = {}
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    best = float("inf")
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        # Expand the smaller frontier.
        if heap_f[0][0] <= heap_b[0][0]:
            d, node = heapq.heappop(heap_f)
            if node in dist_f:
                continue
            dist_f[node] = d
            if node in dist_b:
                best = min(best, d + dist_b[node])
            for edge in network.out_edges(node):
                if edge.target not in dist_f:
                    nd = d + wf(edge)
                    heapq.heappush(heap_f, (nd, edge.target))
                    if edge.target in dist_b:
                        best = min(best, nd + dist_b[edge.target])
        else:
            d, node = heapq.heappop(heap_b)
            if node in dist_b:
                continue
            dist_b[node] = d
            if node in dist_f:
                best = min(best, d + dist_f[node])
            for edge in network.in_edges(node):
                if edge.source not in dist_b:
                    nd = d + wf(edge)
                    heapq.heappush(heap_b, (nd, edge.source))
                    if edge.source in dist_f:
                        best = min(best, nd + dist_f[edge.source])
    if best == float("inf"):
        raise NoPathError(source, target)
    return best


def astar(
    network: RoadNetwork,
    source: int,
    target: int,
) -> Tuple[float, List[int]]:
    """A* with the great-circle lower bound; length-weighted only.

    The haversine distance is an admissible heuristic for road length, so the
    result is exact.
    """
    frozen = network.frozen()
    start, goal = _endpoints(frozen, source, target)
    if source == target:
        return 0.0, [source]
    out, coords = frozen.out, frozen.coords
    pop, push = heapq.heappop, heapq.heappush
    radians, sin, sqrt, asin = math.radians, math.sin, math.sqrt, math.asin
    goal_lat, goal_lon, goal_cos = coords[goal]
    n = len(out)
    # The settled flags stay (unlike Dijkstra's stale-entry test): road
    # lengths may undercut the great-circle bound, and a node settled under
    # an inconsistent heuristic must not be re-expanded.
    settled = [False] * n
    seen = [_INF] * n
    seen[start] = 0.0
    parent = [start] * n
    # Great-circle bound node -> goal, once per node per query (a node is
    # pushed again every time its distance improves); < 0 == not computed.
    bound = [-1.0] * n
    # The lone first entry pops first whatever its key.
    heap: List[Tuple[float, float, int]] = [(0.0, 0.0, start)]
    while heap:
        _f, d, i = pop(heap)
        if settled[i]:
            continue
        settled[i] = True
        if i == goal:
            return d, _trace(frozen.ids, parent, start, goal)
        for j, length_m, _travel_s in out[i]:
            if settled[j]:
                continue
            nd = d + length_m
            if nd < seen[j]:
                seen[j] = nd
                parent[j] = i
                h = bound[j]
                if h < 0.0:
                    # haversine_m(j -> goal) with cos(lat) of both ends
                    # hoisted: the float operations and their order are
                    # haversine_m's, so the value is bit-identical to
                    # position(j).distance_to(position(target)).
                    lat, lon, cos_lat = coords[j]
                    a = (
                        sin(radians(goal_lat - lat) / 2.0) ** 2
                        + cos_lat * goal_cos * sin(radians(goal_lon - lon) / 2.0) ** 2
                    )
                    h = bound[j] = _EARTH_DIAMETER_M * asin(min(1.0, sqrt(a)))
                push(heap, (nd + h, nd, j))
    raise NoPathError(source, target)


def multi_source_nearest(
    network: RoadNetwork,
    sources: Iterable[int],
    weight: str = "length",
    cutoff: Optional[float] = None,
) -> Dict[int, Tuple[int, float]]:
    """Label every reachable node with its nearest source and the distance.

    One heap pass from all sources simultaneously — the classic trick the
    discretization builder uses to associate every grid/node with its closest
    landmark without running a Dijkstra per grid.

    Note: distances here are *from source to node* following edge directions;
    for "driving distance from grid to landmark" semantics the caller passes
    the landmark set and we search the reverse graph.
    """
    wf = _weight_fn(weight)
    label: Dict[int, Tuple[int, float]] = {}
    heap: List[Tuple[float, int, int]] = []
    for src in sources:
        if not network.has_node(src):
            raise RoadNetworkError(f"unknown source node {src}")
        heapq.heappush(heap, (0.0, src, src))
    while heap:
        d, node, origin = heapq.heappop(heap)
        if node in label:
            continue
        if cutoff is not None and d > cutoff:
            break
        label[node] = (origin, d)
        for edge in network.out_edges(node):
            if edge.target not in label:
                heapq.heappush(heap, (d + wf(edge), edge.target, origin))
    return label


def multi_source_nearest_reverse(
    network: RoadNetwork,
    sources: Iterable[int],
    weight: str = "length",
    cutoff: Optional[float] = None,
) -> Dict[int, Tuple[int, float]]:
    """Like :func:`multi_source_nearest` but over reversed edges.

    The label of node ``v`` is then the nearest source *measured as the
    driving distance from v to the source*, which is the correct semantics for
    "drive from this grid to its landmark".
    """
    wf = _weight_fn(weight)
    label: Dict[int, Tuple[int, float]] = {}
    heap: List[Tuple[float, int, int]] = []
    for src in sources:
        if not network.has_node(src):
            raise RoadNetworkError(f"unknown source node {src}")
        heapq.heappush(heap, (0.0, src, src))
    while heap:
        d, node, origin = heapq.heappop(heap)
        if node in label:
            continue
        if cutoff is not None and d > cutoff:
            break
        label[node] = (origin, d)
        for edge in network.in_edges(node):
            if edge.source not in label:
                heapq.heappush(heap, (d + wf(edge), edge.source, origin))
    return label


def shortest_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    weight: str = "length",
) -> float:
    """Convenience wrapper: distance only, bidirectional under the hood."""
    return bidirectional_dijkstra(network, source, target, weight)
