"""Road network graph: construction, access, snapping, route metrics."""

import random

import pytest

from repro.exceptions import RoadNetworkError
from repro.geo import GeoPoint, destination_point
from repro.roadnet import RoadNetwork


@pytest.fixture
def triangle():
    net = RoadNetwork()
    base = GeoPoint(40.7, -74.0)
    net.add_node(0, base)
    net.add_node(1, destination_point(base, 90.0, 500.0))
    net.add_node(2, destination_point(base, 0.0, 500.0))
    net.add_edge(0, 1, bidirectional=True)
    net.add_edge(1, 2, bidirectional=True)
    net.add_edge(2, 0, bidirectional=True)
    return net


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 6  # bidirectional doubles

    def test_readding_same_node_same_position_is_noop(self, triangle):
        triangle.add_node(0, triangle.position(0))
        assert triangle.node_count == 3

    def test_moving_a_node_is_rejected(self, triangle):
        with pytest.raises(RoadNetworkError):
            triangle.add_node(0, GeoPoint(41.0, -74.0))

    def test_edge_to_unknown_node_rejected(self, triangle):
        with pytest.raises(RoadNetworkError):
            triangle.add_edge(0, 99)

    def test_default_edge_length_is_haversine(self, triangle):
        edge = triangle.out_edges(0)[0]
        expected = triangle.position(0).distance_to(triangle.position(edge.target))
        assert edge.length_m == pytest.approx(expected)

    def test_negative_length_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_edge(0, 1, length_m=-5.0)

    def test_nonpositive_speed_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_edge(0, 1, speed_mps=0.0)


class TestAccess:
    def test_position_of_unknown_node(self, triangle):
        with pytest.raises(RoadNetworkError):
            triangle.position(42)

    def test_out_and_in_edges_are_mirrored(self, triangle):
        for edge in triangle.edges():
            assert edge in triangle.in_edges(edge.target)

    def test_bounding_box_contains_all_nodes(self, triangle):
        box = triangle.bounding_box()
        for node in triangle.nodes():
            assert box.contains(triangle.position(node))

    def test_empty_network_bounding_box_raises(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork().bounding_box()


class TestRouteMetrics:
    def test_route_length_sums_edges(self, triangle):
        length = triangle.route_length_m([0, 1, 2])
        e01 = triangle.position(0).distance_to(triangle.position(1))
        e12 = triangle.position(1).distance_to(triangle.position(2))
        assert length == pytest.approx(e01 + e12)

    def test_route_time_uses_edge_speeds(self, triangle):
        time = triangle.route_time_s([0, 1])
        edge = [e for e in triangle.out_edges(0) if e.target == 1][0]
        assert time == pytest.approx(edge.length_m / edge.speed_mps)

    def test_route_with_missing_edge_rejected(self, triangle):
        net = RoadNetwork()
        net.add_node(0, GeoPoint(40.7, -74.0))
        net.add_node(1, GeoPoint(40.71, -74.0))
        with pytest.raises(RoadNetworkError):
            net.route_length_m([0, 1])

    def test_single_node_route_is_zero(self, triangle):
        assert triangle.route_length_m([0]) == 0.0


class TestSnap:
    def test_snap_exact_node_position(self, triangle):
        for node in triangle.nodes():
            assert triangle.snap(triangle.position(node)) == node

    def test_snap_matches_brute_force(self, city, rng):
        base = city.bounding_box()
        for _trial in range(50):
            point = GeoPoint(
                rng.uniform(base.min_lat, base.max_lat),
                rng.uniform(base.min_lon, base.max_lon),
            )
            snapped = city.snap(point)
            best = min(
                city.nodes(), key=lambda n: city.position(n).distance_to(point)
            )
            assert city.position(snapped).distance_to(point) == pytest.approx(
                city.position(best).distance_to(point), abs=1e-6
            )

    def test_snap_point_far_outside_bbox(self, city):
        outside = GeoPoint(41.5, -74.0)  # tens of km north
        node = city.snap(outside)
        assert city.has_node(node)

    def test_snap_empty_network_raises(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork().snap(GeoPoint(0.0, 0.0))


class TestFrozenAdjacency:
    """The lazily built frozen adjacency under the shortest-path kernels and
    route validation: dropped by every mutation, complete when published."""

    def test_add_edge_after_a_query_is_seen_by_the_next(self, triangle):
        from repro.roadnet import astar, dijkstra_path
        from repro.roadnet.shortest_path import many_source_distances

        far = destination_point(triangle.position(1), 90.0, 500.0)
        triangle.add_node(3, far)
        triangle.add_edge(1, 3, bidirectional=True)
        before, path = dijkstra_path(triangle, 0, 3)
        assert path == [0, 1, 3]
        # A shortcut added to the *built* graph must win the next query.
        triangle.add_edge(0, 3, length_m=1.0)
        assert dijkstra_path(triangle, 0, 3) == (1.0, [0, 3])
        assert astar(triangle, 0, 3) == (1.0, [0, 3])
        assert many_source_distances(triangle, [0], targets=[3])[0, 0] == 1.0
        assert triangle.route_length_m([0, 3]) == 1.0
        assert before > 1.0

    def test_add_node_after_a_query_is_seen_by_the_next(self, triangle):
        from repro.roadnet import dijkstra_path

        dijkstra_path(triangle, 0, 2)
        triangle.add_node(7, destination_point(triangle.position(2), 0.0, 300.0))
        triangle.add_edge(2, 7, length_m=300.0)
        assert dijkstra_path(triangle, 2, 7) == (300.0, [2, 7])
        with pytest.raises(RoadNetworkError):
            triangle.route_length_m([7, 2])  # one-way: no edge back

    def test_parallel_edges_keep_first_match(self, triangle):
        triangle.add_edge(0, 1, length_m=9999.0, speed_mps=1.0)  # second 0 -> 1
        first = triangle.out_edges(0)[0]
        assert first.target == 1
        assert triangle.route_length_m([0, 1]) == first.length_m
        assert triangle.route_time_s([0, 1]) == first.travel_seconds

    def test_dense_order_follows_node_ids(self):
        """Heap ties break on the dense index; it must order like the ids."""
        net = RoadNetwork()
        for node in (40, 7, 19, 3):
            net.add_node(node, GeoPoint(40.0 + node * 1e-4, -74.0))
        frozen = net.frozen()
        assert frozen.ids == [3, 7, 19, 40]
        assert [frozen.index[node] for node in frozen.ids] == [0, 1, 2, 3]

    def test_racing_lazy_builds_all_get_a_complete_adjacency(self, city):
        import sys
        import threading

        from repro.roadnet import dijkstra_path, manhattan_city

        expected = dijkstra_path(city, 0, city.node_count - 1)
        n_threads = 8
        results = [None] * n_threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                fresh = manhattan_city(n_avenues=12, n_streets=40)
                assert fresh._frozen is None
                barrier = threading.Barrier(n_threads)

                def work(slot, network=fresh, barrier=barrier):
                    barrier.wait(timeout=10)
                    frozen = network.frozen()
                    results[slot] = (
                        len(frozen.out),
                        sum(len(edges) for edges in frozen.out),
                        len(frozen.coords),
                        dijkstra_path(network, 0, network.node_count - 1),
                    )

                threads = [
                    threading.Thread(target=work, args=(slot,))
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                for got in results:
                    assert got == (
                        fresh.node_count, fresh.edge_count, fresh.node_count,
                        expected,
                    )
        finally:
            sys.setswitchinterval(interval)
