"""Shortest paths: correctness, cross-algorithm agreement, edge cases."""

import random

import numpy as np
import pytest

from repro.exceptions import NoPathError, RoadNetworkError
from repro.geo import GeoPoint
from repro.roadnet import RoadNetwork, astar, dijkstra_path
from repro.roadnet.shortest_path import (
    many_source_distances,
    multi_source_nearest_reverse,
)


@pytest.fixture(scope="module")
def pairs(city):
    rng = random.Random(7)
    nodes = list(city.nodes())
    return [tuple(rng.sample(nodes, 2)) for _n in range(25)]


class TestDijkstraPath:
    def test_path_endpoints_and_length(self, city, pairs):
        for a, b in pairs:
            dist, path = dijkstra_path(city, a, b)
            assert path[0] == a and path[-1] == b
            assert city.route_length_m(path) == pytest.approx(dist)

    def test_self_path(self, city):
        assert dijkstra_path(city, 5, 5) == (0.0, [5])

    def test_unknown_nodes_rejected(self, city):
        with pytest.raises(RoadNetworkError):
            dijkstra_path(city, -1, 0)
        with pytest.raises(RoadNetworkError):
            dijkstra_path(city, 0, 10**9)

    def test_no_path_raises(self):
        net = RoadNetwork()
        net.add_node(0, GeoPoint(40.0, -74.0))
        net.add_node(1, GeoPoint(40.1, -74.0))
        with pytest.raises(NoPathError):
            dijkstra_path(net, 0, 1)

    def test_directed_edge_not_traversed_backwards(self):
        net = RoadNetwork()
        net.add_node(0, GeoPoint(40.0, -74.0))
        net.add_node(1, GeoPoint(40.001, -74.0))
        net.add_edge(0, 1)
        dist, _ = dijkstra_path(net, 0, 1)
        assert dist > 0
        with pytest.raises(NoPathError):
            dijkstra_path(net, 1, 0)


class TestAlgorithmAgreement:
    def test_astar_equals_dijkstra(self, city, pairs):
        for a, b in pairs:
            d1, _p1 = dijkstra_path(city, a, b)
            d2, _p2 = astar(city, a, b)
            assert d2 == pytest.approx(d1, abs=1e-6)

    def test_time_weight_differs_from_length(self, city):
        d_len = many_source_distances(city, [0], weight="length")[0]
        d_time = many_source_distances(city, [0], weight="time")[0]
        # Same reachability, different magnitudes.
        assert (np.isfinite(d_len) == np.isfinite(d_time)).all()
        some = next(i for i, d in enumerate(d_len) if 0.0 < d < np.inf)
        assert d_len[some] != d_time[some]

    def test_unknown_weight_rejected(self, city):
        with pytest.raises(ValueError):
            many_source_distances(city, [0], weight="bogus")


class TestDijkstraAll:
    """One-to-all distances: a row of ``many_source_distances``."""

    def test_source_distance_zero_and_reaches_all(self, city):
        nodes = sorted(city.nodes())
        dist = many_source_distances(city, [0])[0]
        assert dist[nodes.index(0)] == 0.0
        assert np.isfinite(dist).all()  # strongly connected

    def test_targets_early_exit(self, city):
        """Asking for a few targets gives the full row's values there."""
        targets = [10, 20, 30]
        dist = many_source_distances(city, [0], targets=targets)[0]
        full = many_source_distances(city, [0])[0]
        nodes = sorted(city.nodes())
        assert dist.tolist() == [full[nodes.index(t)] for t in targets]


class TestMultiSource:
    def test_labels_match_per_source_minimum(self, city):
        sources = [0, 150, 300]
        label = multi_source_nearest_reverse(city, sources)
        nodes = sorted(city.nodes())
        # Row i: the distance from every node to sources[i].
        to_source = many_source_distances(city, sources, reverse=True)
        rng = random.Random(3)
        for node in rng.sample(nodes, 40):
            origin, dist = label[node]
            column = to_source[:, nodes.index(node)]
            assert dist == pytest.approx(column.min())
            assert column[sources.index(origin)] == pytest.approx(dist)

    def test_reverse_measures_node_to_source(self, city):
        sources = [0, 200]
        label = multi_source_nearest_reverse(city, sources)
        rng = random.Random(4)
        for node in rng.sample(list(city.nodes()), 20):
            origin, dist = label[node]
            direct, _ = dijkstra_path(city, node, origin)
            assert dist == pytest.approx(direct)

    def test_cutoff(self, city):
        full = multi_source_nearest_reverse(city, [0])
        label = multi_source_nearest_reverse(city, [0], cutoff=400.0)
        assert len(label) < len(full)
        assert all(d <= 400.0 for _o, d in label.values())

    def test_source_labels_itself(self, city):
        label = multi_source_nearest_reverse(city, [42])
        assert label[42] == (42, 0.0)
