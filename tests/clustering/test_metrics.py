"""Distance matrices: validation and landmark-matrix correctness."""

import numpy as np
import pytest

from repro.clustering import DistanceMatrix, landmark_distance_matrix
from repro.landmarks import extract_landmarks, synthesize_pois
from repro.roadnet import dijkstra_path


class TestDistanceMatrixValidation:
    def test_accepts_valid_metric(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = DistanceMatrix(values)
        assert m.n == 2
        assert m.distance(0, 1) == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 3)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_allows_inf_for_unreachable(self):
        inf = float("inf")
        m = DistanceMatrix(np.array([[0.0, inf], [inf, 0.0]]))
        assert m.distance(0, 1) == inf

    @pytest.mark.parametrize("n", [3, 300, 600])
    @pytest.mark.parametrize(
        "poke, accepted",
        [
            (None, True),
            (-1.0, False),  # a finite negative
            (-0.0, True),
            (float("-inf"), True),  # only *finite* negatives were ever checked
            (float("nan"), False),  # NaN != NaN: fails the symmetry check
        ],
    )
    def test_banded_checks_keep_the_accept_set(self, n, poke, accepted):
        """Validation runs in row bands; across band edges it accepts and
        rejects exactly what the whole-matrix checks did."""
        rng = np.random.default_rng(n)
        values = rng.uniform(0.0, 100.0, (n, n))
        values = np.maximum(values, values.T)
        np.fill_diagonal(values, 0.0)
        if poke is not None:
            i, j = n - 1, n // 2 - 1
            values[i, j] = values[j, i] = poke
        if accepted:
            DistanceMatrix(values)
        else:
            with pytest.raises(ValueError):
                DistanceMatrix(values)

    def test_asymmetry_past_the_first_band_rejected(self):
        values = np.zeros((600, 600))
        values[599, 3] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(values)


class TestSubsetQueries:
    @pytest.fixture
    def matrix(self):
        values = np.array(
            [
                [0.0, 1.0, 5.0, 9.0],
                [1.0, 0.0, 4.0, 8.0],
                [5.0, 4.0, 0.0, 2.0],
                [9.0, 8.0, 2.0, 0.0],
            ]
        )
        return DistanceMatrix(values)

    def test_max_pairwise(self, matrix):
        assert matrix.max_pairwise([0, 1, 2]) == 5.0
        assert matrix.max_pairwise([0]) == 0.0
        assert matrix.max_pairwise([]) == 0.0

    def test_min_cross(self, matrix):
        assert matrix.min_cross([0, 1], [2, 3]) == 4.0

    def test_min_cross_empty_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix.min_cross([], [1])


class TestLandmarkMatrix:
    @pytest.fixture(scope="class")
    def setup(self, small_city):
        pois = synthesize_pois(small_city, seed=17)
        landmarks = extract_landmarks(pois, small_city, min_separation_m=200.0)
        matrix = landmark_distance_matrix(small_city, landmarks)
        return small_city, landmarks, matrix

    def test_matches_direct_dijkstra_with_max_symmetrisation(self, setup):
        city, landmarks, matrix = setup
        for i in range(min(4, len(landmarks))):
            for j in range(min(4, len(landmarks))):
                if i == j:
                    continue
                d_ij, _ = dijkstra_path(city, landmarks[i].node, landmarks[j].node)
                d_ji, _ = dijkstra_path(city, landmarks[j].node, landmarks[i].node)
                assert matrix.distance(i, j) == pytest.approx(max(d_ij, d_ji))
