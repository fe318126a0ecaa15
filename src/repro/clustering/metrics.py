"""Distance matrices over landmarks.

The clustering algorithms and the in-memory index both consume an n x n
matrix of landmark-to-landmark *driving* distances.  Preprocessing fills it
with one many-source shortest-path run over every landmark at once, keeping
only the landmark columns (Section VI stores exactly this: "distances between
landmarks").

Road graphs are directed, so raw distances are asymmetric; the theory
(Theorem 6) needs a metric.  We symmetrise with ``max(d_ij, d_ji)``, the
conservative choice: any guarantee stated on the symmetrised metric holds for
both directions of real driving.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..landmarks import Landmark
from ..roadnet import RoadNetwork
from ..roadnet.shortest_path import many_source_distances

#: Rows per band of the in-place passes over a whole matrix (symmetrising,
#: validating): their scratch is a band, not a second n x n array.
_BAND_ROWS = 256


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
        bands = range(0, array.shape[0], _BAND_ROWS)
        # -inf passes this check (and NaN fails the symmetry one), as ever.
        if any(_finite_negative(array[top:top + _BAND_ROWS]) for top in bands):
            raise ValueError("distances must be non-negative")
        if not all(
            np.array_equal(array[top:top + _BAND_ROWS], array[:, top:top + _BAND_ROWS].T)
            for top in bands
        ):
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
) -> DistanceMatrix:
    """Driving-distance matrix between landmark road nodes, symmetrised with
    ``max(d_ij, d_ji)``.  Unreachable pairs become ``inf`` (they can never
    share a cluster)."""
    nodes = [lm.node for lm in landmarks]
    matrix = many_source_distances(network, nodes, targets=nodes)
    np.fill_diagonal(matrix, 0.0)
    _symmetrise_max(matrix)
    return DistanceMatrix(matrix)


def _finite_negative(band: np.ndarray) -> bool:
    return bool(((band < 0.0) & np.isfinite(band)).any())


def _symmetrise_max(matrix: np.ndarray) -> None:
    """``matrix = max(matrix, matrix.T)`` in place, one band of rows at a
    time: the scratch is a band, never a second full matrix."""
    n = matrix.shape[0]
    for top in range(0, n, _BAND_ROWS):
        bottom = min(top + _BAND_ROWS, n)
        band = np.maximum(matrix[top:bottom, top:], matrix[top:, top:bottom].T)
        matrix[top:bottom, top:] = band
        matrix[top:, top:bottom] = band.T
