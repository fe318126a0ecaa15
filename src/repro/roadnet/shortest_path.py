"""Shortest-path algorithms over :class:`~repro.roadnet.graph.RoadNetwork`.

The paper's design principle is that shortest paths are computed only at ride
*creation* and *booking* time, never during search.  These are the routines
those operations and the region builder use:

* :func:`astar` — haversine-guided one-to-one path search (ride creation),
* :func:`dijkstra_path` — one-to-one distance + node path (a booking splice
  that no landmark tree answers),
* :func:`shortest_path_trees` — :func:`dijkstra_path`'s paths from many
  roots at once, as parent slots (the booking splice from a landmark),
* :func:`many_source_distances` — many-to-many distances as one array,
  every source at once (the landmark matrix and the trees' labels),
* :func:`multi_source_nearest_reverse` — nearest-landmark labelling used by
  the discretization builder to associate every grid with its closest
  landmark in a single pass (instead of one Dijkstra per grid).

All distances are metres over edge lengths; time-weighted variants are
obtained by passing ``weight="time"``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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


#: Labels per source block of :func:`many_source_distances` (16 bytes each
#: with its stamp): 1 MB of buffers, and sweep temporaries in proportion,
#: whatever the source count.  Set by the peak, not the speed: building the
#: benchmark city peaks within 0.3 MB of the per-landmark loops it replaced
#: (2**21, one block for all 203 landmarks, peaked 4 MB higher), at the cost
#: of per-sweep overhead on big cities (60 x 200: 3.3 s against 2.2 s).
_BLOCK_LABELS = 1 << 16


def many_source_distances(
    network: RoadNetwork,
    sources: Sequence[int],
    weight: str = "length",
    targets: Optional[Sequence[int]] = None,
    reverse: bool = False,
) -> np.ndarray:
    """Shortest distances from every source at once, as an array.

    Row ``i`` holds the distances from ``sources[i]`` to each of
    ``targets`` (default: every node, in ascending id order); ``inf`` where
    unreachable.  With ``reverse`` the distances run the other way, from
    each target *to* the source.

    Every value equals a one-to-all Dijkstra's, bit for bit.  The kernel is
    label-correcting: each sweep relaxes the out-edges of exactly the
    (source, node) labels that dropped in the sweep before, and it stops
    when none drops — at the least fixed point of
    ``d[v] = min_u fl(d[u] + w(u, v))``.  Dijkstra settles that same fixed
    point: both sides' labels are left-fold float sums along walks, rounding
    is monotone and weights are >= 0, so a Dijkstra label is <= every walk
    sum and is itself one.
    """
    frozen = network.frozen()
    rows = frozen.csr(reverse)
    weights = rows.length_m if _weight_column(weight) == 1 else rows.travel_s
    n = len(frozen.ids)
    starts = _dense(frozen, sources, "source")
    columns = None if targets is None else _dense(frozen, targets, "target")
    out = np.empty((starts.size, n if columns is None else columns.size))
    if not starts.size or not n:
        return out
    block = max(1, _BLOCK_LABELS // n)
    labels = np.empty(min(block, starts.size) * n)
    stamps = np.empty(labels.size, dtype=np.intp)
    for first in range(0, starts.size, block):
        chunk = starts[first:first + block]
        view = labels[:chunk.size * n]
        view.fill(_INF)
        seeds = np.arange(chunk.size) * n + chunk
        view[seeds] = 0.0
        _settle(view, stamps, seeds, n, rows.offsets, rows.target, weights)
        settled = view.reshape(chunk.size, n)
        out[first:first + chunk.size] = settled if columns is None else settled[:, columns]
    return out


def _settle(labels, stamps, frontier, n, offsets, target, weights) -> None:
    """Sweep the flat (block x n) ``labels`` from the ``frontier`` positions
    until no label drops.  ``stamps`` is scratch: a position's slot holds
    the index of one candidate that lowered it this sweep, which picks
    exactly one copy of each position without a sort."""
    while frontier.size:
        node = frontier % n
        first = offsets[node]
        degree = offsets[node + 1] - first
        ends = np.cumsum(degree)
        edge = np.arange(ends[-1]) + np.repeat(first - ends + degree, degree)
        pos = np.repeat(frontier - node, degree) + target[edge]
        cand = np.repeat(labels[frontier], degree) + weights[edge]
        better = cand < labels[pos]
        pos = pos[better]
        np.minimum.at(labels, pos, cand[better])
        order = np.arange(pos.size)
        stamps[pos] = order
        frontier = pos[stamps[pos] == order]


#: Roots per block of :func:`shortest_path_trees`.  Set by the peak, not the
#: speed: on the benchmark city (2-vCPU box) the build's transient peak is
#: 1.4 MB at 8 roots (118 ms), 2.4 MB at 16 (95 ms) and 4.4 MB at 32 (90 ms),
#: and a shard pays it on top of its supply at its first booking.
_TREE_BLOCK = 8


class PathTrees:
    """Shortest-path trees from many roots, stored as in-edge slots.

    ``slots[r, v]`` is the position, within ``v``'s in-edge row of
    ``csr(reverse=True)``, of the edge from ``v``'s parent in root ``r``'s
    tree; the dtype's largest value marks the root and unreachable nodes.
    Every array is read-only: thread shards share one region.
    """

    __slots__ = ("roots", "slots", "_row", "_start", "_flat", "_n", "_offsets",
                 "_tails", "_ids", "_index", "_none")

    def __init__(self, frozen, roots: np.ndarray, slots: np.ndarray):
        rows = frozen.csr(reverse=True)
        roots.setflags(write=False)
        slots.setflags(write=False)
        self.roots = roots
        self.slots = slots
        self._start = roots.tolist()
        self._row = {frozen.ids[root]: r for r, root in enumerate(self._start)}
        # The walk reads one slot per hop: plain lists and a flat memoryview
        # index an order of magnitude faster than numpy scalars.
        self._flat = memoryview(slots.reshape(-1))
        self._n = slots.shape[1]
        self._offsets = rows.offsets.tolist()
        self._tails = rows.target.tolist()
        self._ids = frozen.ids
        self._index = frozen.index
        self._none = np.iinfo(slots.dtype).max

    @property
    def nbytes(self) -> int:
        return self.slots.nbytes

    def path(self, source: int, target: int) -> Optional[List[int]]:
        """The node path ``source .. target`` that :func:`dijkstra_path`
        returns, or ``None`` when ``source`` is not one of the roots.

        Raises :class:`~repro.exceptions.NoPathError` if unreachable."""
        row = self._row.get(source)
        if row is None:
            return None
        goal = self._index.get(target)
        if goal is None:
            raise RoadNetworkError(f"unknown target node {target}")
        flat, offsets, tails, ids = self._flat, self._offsets, self._tails, self._ids
        start, base, none = self._start[row], row * self._n, self._none
        path = [target]
        i = goal
        while i != start:
            slot = flat[base + i]
            if slot == none:
                raise NoPathError(source, target)
            i = tails[offsets[i] + slot]
            path.append(ids[i])
        path.reverse()
        return path


def shortest_path_trees(network: RoadNetwork, roots: Sequence[int]) -> PathTrees:
    """The shortest-path tree of every root, each path equal to
    :func:`dijkstra_path`'s node list (length-weighted).

    Labels come from :func:`many_source_distances`, ``_TREE_BLOCK`` roots at
    a time.  A node's parent is then read off the labels: Dijkstra sets it
    on the last strict improvement, i.e. to the first *tight* in-neighbour
    (``fl(d[u] + w) == d[v]``) it settles.  When every tight edge climbs
    (``d[u] < d[v]``), each node is queued at its final label before
    anything at or above that label pops, so Dijkstra settles in
    ``(label, dense index)`` order and the parent is the least such
    in-neighbour.  A root with a tight edge on a tie (``d[u] == d[v]``:
    zero-length edges, or a weight lost to rounding) may settle out of that
    order; its tree comes from an exact Dijkstra instead.
    """
    frozen = network.frozen()
    rows = frozen.csr(reverse=True)
    tails, n = rows.target, len(frozen.ids)
    degree = np.diff(rows.offsets)
    heads = np.repeat(np.arange(n), degree)
    slot = np.arange(tails.size) - rows.offsets[heads]
    has_in = degree > 0
    firsts = rows.offsets[:-1][has_in]
    width = int(degree.max(initial=0)) + 1
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if width <= np.iinfo(t).max)
    none = np.iinfo(dtype).max
    starts = _dense(frozen, roots, "root")
    slots = np.full((starts.size, n), none, dtype=dtype)
    if not firsts.size:  # no edges: every tree is its root alone
        return PathTrees(frozen, starts, slots)
    missing = n * width  # above every rank * width + slot
    for first in range(0, starts.size, _TREE_BLOCK):
        chunk = starts[first:first + _TREE_BLOCK]
        d = many_source_distances(network, roots[first:first + _TREE_BLOCK])
        # In place where it can be: these (block x edges) arrays are the
        # build's peak memory.
        dv = d[:, heads]
        du = d[:, tails]
        tie = du == dv
        du += rows.length_m
        tight = du == dv
        tight &= np.isfinite(dv)
        tie &= tight
        del du, dv
        order = np.argsort(d, axis=1, kind="stable")  # ties by dense index
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        key = rank[:, tails]
        key *= width
        key += slot
        key[~tight] = missing
        for r in np.flatnonzero(tie.any(axis=1)):
            parent = np.array(_dijkstra_parents(frozen, int(chunk[r])))
            key[r] = np.where(tails == parent[heads], slot, missing)
        best = np.minimum.reduceat(key, firsts, axis=1)
        slots[first:first + chunk.size, has_in] = np.where(
            best < missing, best % width, none)
    return PathTrees(frozen, starts, slots)


def _dijkstra_parents(frozen, start: int) -> List[int]:
    """Dense parent of every node in an exhaustive length-weighted
    :func:`dijkstra_path` from dense ``start`` (-1: the root and unreachable
    nodes)."""
    out = frozen.out
    pop, push = heapq.heappop, heapq.heappush
    seen = [_INF] * len(out)
    seen[start] = 0.0
    parent = [-1] * len(out)
    heap: List[Tuple[float, int]] = [(0.0, start)]
    while heap:
        d, i = pop(heap)
        if d > seen[i]:
            continue
        for j, length_m, _travel_s in out[i]:
            nd = d + length_m
            if nd < seen[j]:
                seen[j] = nd
                parent[j] = i
                push(heap, (nd, j))
    return parent


def _dense(frozen, nodes: Sequence[int], role: str) -> np.ndarray:
    """Dense indices of node ids, validating every one exists."""
    index = frozen.index
    dense = np.empty(len(nodes), dtype=np.intp)
    for i, node in enumerate(nodes):
        at = index.get(node)
        if at is None:
            raise RoadNetworkError(f"unknown {role} node {node}")
        dense[i] = at
    return dense


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


def astar(
    network: RoadNetwork,
    source: int,
    target: int,
) -> Tuple[float, List[int]]:
    """A* with the great-circle lower bound; length-weighted only.

    The heuristic is the haversine distance scaled by the graph's
    ``bound_scale``, which keeps it a lower bound on every edge's length and
    so consistent: the returned distance is Dijkstra's.  Where no road
    undercuts the great circle the scale is exactly 1.0.
    """
    frozen = network.frozen()
    start, goal = _endpoints(frozen, source, target)
    if source == target:
        return 0.0, [source]
    out, coords = frozen.out, frozen.coords
    pop, push = heapq.heappop, heapq.heappush
    radians, sin, sqrt, asin = math.radians, math.sin, math.sqrt, math.asin
    goal_lat, goal_lon, goal_cos = coords[goal]
    scale = frozen.bound_scale
    n = len(out)
    # The settled flags stay (unlike Dijkstra's stale-entry test): rounding
    # can still leave the scaled bound a hair inconsistent, and a settled
    # node must not be re-expanded.
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
                    h = bound[j] = scale * (
                        _EARTH_DIAMETER_M * asin(min(1.0, sqrt(a)))
                    )
                push(heap, (nd + h, nd, j))
    raise NoPathError(source, target)


def multi_source_nearest_reverse(
    network: RoadNetwork,
    sources: Iterable[int],
    weight: str = "length",
    cutoff: Optional[float] = None,
) -> Dict[int, Tuple[int, float]]:
    """Label every reachable node with its nearest source and the distance,
    in one heap pass from all sources over reversed edges.

    The label of node ``v`` is the nearest source *measured as the driving
    distance from v to the source*, which is the correct semantics for
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

