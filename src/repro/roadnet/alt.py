"""ALT routing: A* with landmark-distance lower bounds (Goldberg-Harrelson).

Create and book are the only XAR operations that compute shortest paths, and
they dominate those operations' cost (Fig. 4b/4c).  ALT accelerates them:

* preprocessing picks a handful of *routing landmarks* (farthest-point
  spread, unrelated to the discretization's POI landmarks) and stores, for
  every node, the distances to and from each landmark;
* queries run A* with the triangle-inequality lower bound
  ``max_L |d(L, t) - d(L, v)|, |d(v, L) - d(t, L)|`` — admissible and usually
  much tighter than the haversine bound, so far fewer nodes settle.

Preprocessing is two many-source runs over all routing landmarks at once, one
on the graph and one on its reverse; the tables live beside the road network
for the lifetime of the engine.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import NoPathError, RoadNetworkError
from .graph import RoadNetwork
from .shortest_path import many_source_distances


class ALTRouter:
    """Preprocessed landmark tables + the accelerated query."""

    def __init__(self, network: RoadNetwork, n_landmarks: int = 8, seed_node: Optional[int] = None):
        if n_landmarks < 1:
            raise ValueError(f"n_landmarks must be >= 1, got {n_landmarks!r}")
        self.network = network
        nodes = list(network.nodes())
        if not nodes:
            raise RoadNetworkError("cannot build ALT tables on an empty network")
        self._node_index: Dict[int, int] = {node: i for i, node in enumerate(nodes)}
        self._nodes = nodes
        self.landmarks = self._pick_landmarks(
            min(n_landmarks, len(nodes)), seed_node if seed_node is not None else nodes[0]
        )
        #: to_landmark[l][i]   = d(node_i -> landmark_l)
        #: from_landmark[l][i] = d(landmark_l -> node_i)
        self._to_landmark = many_source_distances(
            network, self.landmarks, targets=nodes, reverse=True
        )
        self._from_landmark = many_source_distances(network, self.landmarks, targets=nodes)

    def _pick_landmarks(self, k: int, first: int) -> List[int]:
        """Farthest-point spread in great-circle distance (cheap, effective)."""
        chosen = [first]
        positions = {node: self.network.position(node) for node in self._nodes}
        while len(chosen) < k:
            best_node, best_dist = None, -1.0
            for node in self._nodes:
                nearest = min(
                    positions[node].distance_to(positions[c]) for c in chosen
                )
                if nearest > best_dist:
                    best_node, best_dist = node, nearest
            if best_node is None or best_dist <= 0.0:
                break
            chosen.append(best_node)
        return chosen

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def lower_bound(self, node: int, target: int) -> float:
        """Admissible h(node) for a search toward ``target``."""
        i = self._node_index[node]
        j = self._node_index[target]
        # Directed-graph ALT bounds (signed, not absolute):
        #   d(v, t) >= d(v -> L) - d(t -> L)    (to-landmark tables)
        #   d(v, t) >= d(L -> t) - d(L -> v)    (from-landmark tables)
        to_diff = self._to_landmark[:, i] - self._to_landmark[:, j]
        from_diff = self._from_landmark[:, j] - self._from_landmark[:, i]
        bounds = np.concatenate([to_diff, from_diff])
        bounds = bounds[np.isfinite(bounds)]
        if bounds.size == 0:
            return 0.0
        return float(max(0.0, bounds.max()))

    def _bound_fn(self, target: int):
        """A fast per-query h(node): the target columns are fixed, so the
        bound is a max over 2k float subtractions in pure Python (numpy
        slicing per relaxed node would dominate query time)."""
        j = self._node_index[target]
        to_target = self._to_landmark[:, j].tolist()
        from_target = self._from_landmark[:, j].tolist()
        to_table = self._to_landmark
        from_table = self._from_landmark
        k = len(self.landmarks)
        node_index = self._node_index
        inf = float("inf")

        def bound(node: int) -> float:
            i = node_index[node]
            best = 0.0
            for l_index in range(k):
                to_v = to_table[l_index, i]
                to_t = to_target[l_index]
                if to_v != inf and to_t != inf:
                    diff = to_v - to_t
                    if diff > best:
                        best = diff
                from_v = from_table[l_index, i]
                from_t = from_target[l_index]
                if from_v != inf and from_t != inf:
                    diff = from_t - from_v
                    if diff > best:
                        best = diff
            return best

        return bound

    def shortest_path(self, source: int, target: int) -> Tuple[float, List[int]]:
        """Exact shortest path (length-weighted) via ALT-guided A*."""
        if not self.network.has_node(source):
            raise RoadNetworkError(f"unknown source node {source}")
        if not self.network.has_node(target):
            raise RoadNetworkError(f"unknown target node {target}")
        if source == target:
            return 0.0, [source]
        bound = self._bound_fn(target)
        settled: Dict[int, float] = {}
        seen: Dict[int, float] = {source: 0.0}
        parent: Dict[int, int] = {}
        heap: List[Tuple[float, float, int]] = [(bound(source), 0.0, source)]
        while heap:
            _f, d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = d
            if node == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return d, path
            for edge in self.network.out_edges(node):
                nxt = edge.target
                if nxt in settled:
                    continue
                nd = d + edge.length_m
                if nd < seen.get(nxt, float("inf")):
                    seen[nxt] = nd
                    parent[nxt] = node
                    heapq.heappush(heap, (nd + bound(nxt), nd, nxt))
        raise NoPathError(source, target)

    def settled_count(self, source: int, target: int) -> int:
        """Nodes settled answering one query (for efficiency comparisons)."""
        if source == target:
            return 1
        settled: Dict[int, float] = {}
        seen: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, float, int]] = [
            (self.lower_bound(source, target), 0.0, source)
        ]
        while heap:
            _f, d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = d
            if node == target:
                return len(settled)
            for edge in self.network.out_edges(node):
                nxt = edge.target
                if nxt in settled:
                    continue
                nd = d + edge.length_m
                if nd < seen.get(nxt, float("inf")):
                    seen[nxt] = nd
                    heapq.heappush(heap, (nd + self.lower_bound(nxt, target), nd, nxt))
        raise NoPathError(source, target)
