"""Distance matrices over landmarks.

The clustering algorithms and the in-memory index both consume an n x n
matrix of landmark-to-landmark *driving* distances.  Preprocessing fills it
with one Dijkstra per landmark, restricted to the landmark node set as
targets (Section VI stores exactly this: "distances between landmarks").

Road graphs are directed, so raw distances are asymmetric; the theory
(Theorem 6) needs a metric.  We symmetrise with ``max(d_ij, d_ji)``, the
conservative choice: any guarantee stated on the symmetrised metric holds for
both directions of real driving.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..landmarks import Landmark
from ..roadnet import RoadNetwork, dijkstra_all


class DistanceMatrix:
    """A dense, symmetric distance matrix with validation.

    Wraps a float64 numpy array; unreachable pairs are ``inf``.
    """

    def __init__(self, values: np.ndarray):
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"distance matrix must be square, got {array.shape}")
        if (np.diag(array) != 0.0).any():
            raise ValueError("distance matrix diagonal must be zero")
        finite = array[np.isfinite(array)]
        if (finite < 0).any():
            raise ValueError("distances must be non-negative")
        if not np.array_equal(array, array.T):
            raise ValueError("distance matrix must be symmetric")
        # Kernels index this array directly and thread shards share it:
        # hand out a view nobody can write through (the caller's own array,
        # which ``asarray`` may alias, keeps its flags).
        self._values = array.view()
        self._values.setflags(write=False)

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) array."""
        return self._values

    def __getitem__(self, key):
        return self._values[key]

    def distance(self, i: int, j: int) -> float:
        return float(self._values[i, j])

    def max_pairwise(self, indices: Sequence[int]) -> float:
        """Maximum distance among a subset of points (0.0 for size <= 1)."""
        idx = np.asarray(list(indices), dtype=np.intp)
        if idx.size <= 1:
            return 0.0
        sub = self._values[np.ix_(idx, idx)]
        return float(sub.max())

    def min_cross(self, a: Sequence[int], b: Sequence[int]) -> float:
        """Minimum distance between two subsets (the paper's cluster distance)."""
        ia = np.asarray(list(a), dtype=np.intp)
        ib = np.asarray(list(b), dtype=np.intp)
        if ia.size == 0 or ib.size == 0:
            raise ValueError("min_cross of an empty subset")
        return float(self._values[np.ix_(ia, ib)].min())


def landmark_distance_matrix(
    network: RoadNetwork,
    landmarks: Sequence[Landmark],
    symmetrise: str = "max",
) -> DistanceMatrix:
    """Driving-distance matrix between landmark road nodes.

    ``symmetrise`` is ``"max"`` (conservative, default) or ``"mean"``.
    Unreachable pairs become ``inf`` (they can never share a cluster).
    """
    if symmetrise not in ("max", "mean"):
        raise ValueError(f"symmetrise must be 'max' or 'mean', got {symmetrise!r}")
    n = len(landmarks)
    nodes = [lm.node for lm in landmarks]
    node_set = set(nodes)
    raw = np.full((n, n), np.inf, dtype=np.float64)
    for i, source in enumerate(nodes):
        dist = dijkstra_all(network, source, targets=set(node_set))
        for j, target in enumerate(nodes):
            if target in dist:
                raw[i, j] = dist[target]
    np.fill_diagonal(raw, 0.0)
    if symmetrise == "max":
        sym = np.maximum(raw, raw.T)
    else:
        sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return DistanceMatrix(sym)
