"""The many-source kernel equals one reference Dijkstra per source, bit for bit.

``many_source_distances`` relaxes every source's labels at once until none
drops; its rows must equal ``ref_dijkstra_all`` (unreachable -> ``inf``)
with ``==`` on the bytes — on every network of the shortest-path reference
suite (zero-length, parallel and one-way edges, an unreachable pocket), for
both weights, forward and over reversed edges, with sources shuffled,
repeated and spread over many blocks.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

import repro.roadnet.shortest_path as shortest_path
from repro.exceptions import RoadNetworkError
from repro.roadnet import RoadNetwork, random_planar_city
from repro.roadnet.shortest_path import many_source_distances
from tests.reference_write_path import ref_dijkstra_all
from tests.roadnet.test_shortest_path_reference import NETWORKS, NODES

#: Selected by ``pytest -m reference -k <seed>`` (CI's unpinned-seed run).
pytestmark = pytest.mark.reference

#: The tier-1 seeds, plus any the environment names: CI adds one derived
#: from its run number, so every run compares sources nobody has looked at.
SEEDS = [11, 12, 13] + [
    int(seed) for seed in os.environ.get("XAR_KERNEL_SEEDS", "").split(",") if seed
]


def _reversed(network: RoadNetwork) -> RoadNetwork:
    flipped = RoadNetwork()
    for node in network.nodes():
        flipped.add_node(node, network.position(node))
    for edge in network.edges():
        flipped.add_edge(edge.target, edge.source, edge.length_m, edge.speed_mps)
    return flipped


def _reference(network, sources, weight, targets, reverse=False):
    graph = _reversed(network) if reverse else network
    rows = []
    for source in sources:
        dist = ref_dijkstra_all(graph, source, weight)
        rows.append([dist.get(target, np.inf) for target in targets])
    return np.array(rows, dtype=np.float64).reshape(len(sources), len(targets))


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.argwhere(got != want)[:5]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("weight", ["length", "time"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_every_row_equals_reference(name, weight, reverse):
    """Every node as a source, every node as a target (ascending id order,
    the default columns)."""
    network, nodes = NETWORKS[name], NODES[name]
    got = many_source_distances(network, nodes, weight, reverse=reverse)
    assert_bytes_equal(got, _reference(network, nodes, weight, nodes, reverse))


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_repeated_sources_across_blocks(seed, monkeypatch):
    rng = random.Random(seed)
    network = random_planar_city(n_nodes=150, k_nearest=rng.choice([3, 4]), seed=seed)
    nodes = sorted(network.nodes())
    sources = rng.choices(nodes, k=40) + rng.sample(nodes, 5) * 2
    rng.shuffle(sources)
    targets = rng.sample(nodes, 30) + nodes[:3]
    weight = rng.choice(["length", "time"])
    whole = many_source_distances(network, sources, weight, targets)
    # Three sources per block: 30 blocks, a short last one.
    monkeypatch.setattr(shortest_path, "_BLOCK_LABELS", 3 * len(nodes))
    blocked = many_source_distances(network, sources, weight, targets)
    assert_bytes_equal(blocked, whole)
    assert_bytes_equal(whole, _reference(network, sources, weight, targets))


@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_graph_across_blocks(seed, monkeypatch):
    """The pocket stays ``inf`` from outside and reachable from inside, in
    every block (one source per block here)."""
    name = random.Random(seed).choice(["adversarial-1", "adversarial-2"])
    network, nodes = NETWORKS[name], NODES[name]
    sources = random.Random(seed).sample(nodes, len(nodes))
    monkeypatch.setattr(shortest_path, "_BLOCK_LABELS", 1)
    for reverse in (False, True):
        got = many_source_distances(network, sources, "length", nodes, reverse)
        assert_bytes_equal(got, _reference(network, sources, "length", nodes, reverse))


def test_empty_and_unknown():
    network, nodes = NETWORKS["planar-7"], NODES["planar-7"]
    assert many_source_distances(network, [], targets=nodes[:4]).shape == (0, 4)
    assert many_source_distances(network, nodes[:2], targets=[]).shape == (2, 0)
    with pytest.raises(RoadNetworkError):
        many_source_distances(network, [-1])
    with pytest.raises(RoadNetworkError):
        many_source_distances(network, nodes[:1], targets=[-1])
    with pytest.raises(ValueError):
        many_source_distances(network, nodes[:1], weight="hops")

