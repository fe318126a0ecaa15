"""Regions are pinned: digests, and the matrices against their reference loops.

``region_digest`` covers the config, landmarks, clusters, node→landmark map
and the raw landmark-matrix bytes, so a pinned digest fails on any bit the
region build moves.  The digests below were captured before the landmark and
cluster matrices were built in arrays, and must hold on either build.  The
matrices are also compared with ``==`` on bytes against the loops they
replaced (``tests/reference_write_path.py``) on the benchmark city, the
bridged twin city and a random planar region.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import XARConfig
from repro.discretization import build_region, region_digest
from repro.roadnet import manhattan_city, random_planar_city
from repro.scenarios import grid
from repro.scenarios.city import region_for, twin_city
from tests.reference_write_path import ref_cluster_matrix, ref_landmark_distance_matrix

#: (avenues, streets) -> region_digest with the default config.
LATTICE_DIGESTS = {
    (10, 20): "63a9a5899cd9abb533f7024077a17e0dcb043fa002785ee4f60a2ae3f4a5411e",
    # The benchmark city (bench/inputs.py, benchmarks/conftest.py).
    (20, 60): "cd716a970ac62b3c7fdeaef9fa1aa77c13c918f521cdcbc49767591dff9422c5",
    # Ten times the benchmark city: L = 2019 landmarks, C = 847 clusters.
    (60, 200): "7d259567902788942b5f7787b0c7a3c85e9ae774e464cef56c19b9f570d49015",
}
TWIN_BRIDGE_DIGEST = "013354724bc49b34ae4605155b448158b99bd26e40c26b5e216311140e9aa151"


@pytest.mark.parametrize("size", sorted(LATTICE_DIGESTS), ids=lambda s: f"{s[0]}x{s[1]}")
def test_lattice_digest_pinned(size):
    city = manhattan_city(n_avenues=size[0], n_streets=size[1])
    assert region_digest(build_region(city, XARConfig.validated())) == LATTICE_DIGESTS[size]


def test_twin_bridge_scenario_digest_pinned():
    region = region_for(grid.get("twin_bridge_shard2").city)
    assert region_digest(region) == TWIN_BRIDGE_DIGEST


CITIES = {
    "bench": lambda: manhattan_city(n_avenues=20, n_streets=60),
    "twin": lambda: twin_city(n_avenues=5, n_streets=10, separation_m=2000.0),
    "planar": lambda: random_planar_city(n_nodes=400, k_nearest=3, seed=23),
}


@pytest.mark.parametrize("name", sorted(CITIES))
def test_matrices_equal_reference_loops(name):
    city = CITIES[name]()
    region = build_region(city, XARConfig.validated())
    landmark = region.landmark_matrix.values
    want = ref_landmark_distance_matrix(city, region.landmarks)
    assert landmark.tobytes() == want.tobytes(), np.argwhere(landmark != want)[:5]
    cluster = region.cluster_matrix
    want = ref_cluster_matrix(landmark, region.clusters)
    assert cluster.tobytes() == want.tobytes(), np.argwhere(cluster != want)[:5]
