"""The array-native shortest-path kernels equal the reference loops exactly.

``tests/reference_write_path.py`` holds the kernels as they stood before the
write path was flattened.  Booking splices and ride creation feed these
paths into routes, ETAs and index entries, so "close" is not enough: the
same node path for every (source, target) — lattices are full of equal-
length alternatives, so this pins the tie-breaking — and ``==`` on every
float, on every generator family plus an adversarial hand-built graph.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.geo import GeoPoint
from repro.roadnet import (
    RoadNetwork,
    astar,
    dijkstra_path,
    manhattan_city,
    radial_city,
    random_planar_city,
)
from tests.reference_write_path import (
    ref_astar,
    ref_dijkstra_path,
    ref_find_edge,
)


def _adversarial(seed: int) -> RoadNetwork:
    """Sparse, shuffled node ids; zero-length, parallel and one-way edges;
    lengths that undercut the great-circle distance (so the A* heuristic is
    inconsistent); mixed speeds; an unreachable pocket."""
    rng = random.Random(seed)
    net = RoadNetwork()
    ids = rng.sample(range(1000), 40)
    for node in ids:
        net.add_node(
            node, GeoPoint(40.7 + rng.uniform(0, 0.02), -74.0 + rng.uniform(0, 0.02))
        )
    pocket, body = ids[:3], ids[3:]
    for _edge in range(140):
        a, b = rng.sample(body, 2)
        crow = net.position(a).distance_to(net.position(b))
        length = rng.choice([0.0, crow, crow * rng.uniform(0.2, 3.0), 100.0])
        net.add_edge(
            a, b, length_m=length, speed_mps=rng.choice([5.0, 11.0, 20.0]),
            bidirectional=rng.random() < 0.5,
        )
    net.add_edge(pocket[0], pocket[1], length_m=50.0)
    net.add_edge(pocket[1], pocket[2], length_m=0.0)
    return net


NETWORKS = {
    "lattice-oneway": manhattan_city(n_avenues=7, n_streets=15),
    "lattice-twoway": manhattan_city(n_avenues=6, n_streets=9, one_way_streets=False),
    "radial": radial_city(n_rings=5, n_spokes=9),
    "planar-7": random_planar_city(n_nodes=120, seed=7),
    "planar-23": random_planar_city(n_nodes=90, k_nearest=3, seed=23),
    "adversarial-1": _adversarial(1),
    "adversarial-2": _adversarial(2),
}
NODES = {name: sorted(net.nodes()) for name, net in NETWORKS.items()}

queries = st.tuples(
    st.sampled_from(sorted(NETWORKS)),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def _pick(name: str, a: int, b: int):
    nodes = NODES[name]
    return NETWORKS[name], nodes[a % len(nodes)], nodes[b % len(nodes)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoPathError as exc:
        return ("no path", str(exc))


def assert_astar_exact(network, source, target):
    """Where no road undercuts the great circle (``bound_scale == 1``) A*
    is the reference loop verbatim.  Elsewhere the reference's unscaled
    heuristic is inconsistent and returns longer paths; the scaled one must
    return Dijkstra's distance."""
    got = _outcome(astar, network, source, target)
    if network.frozen().bound_scale == 1.0:
        assert got == _outcome(ref_astar, network, source, target)
        return
    want = _outcome(dijkstra_path, network, source, target)
    if want[0] == "no path":
        assert got == want
        return
    distance, path = got
    assert distance == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert (path[0], path[-1]) == (source, target)


class TestKernelsEqualReference:
    @settings(max_examples=300, deadline=None)
    @given(queries, st.sampled_from(["length", "time"]))
    def test_dijkstra_path(self, query, weight):
        network, source, target = _pick(*query)
        assert _outcome(dijkstra_path, network, source, target, weight) == _outcome(
            ref_dijkstra_path, network, source, target, weight
        )

    @settings(max_examples=300, deadline=None)
    @given(queries)
    def test_astar(self, query):
        assert_astar_exact(*_pick(*query))

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_every_pair_from_a_few_sources(self, name):
        """Exhaustive over targets: no sampling luck on the tie-breaking."""
        network, nodes = NETWORKS[name], NODES[name]
        for source in nodes[:: max(1, len(nodes) // 4)]:
            for target in nodes:
                assert _outcome(dijkstra_path, network, source, target) == _outcome(
                    ref_dijkstra_path, network, source, target
                )
                assert_astar_exact(network, source, target)


class TestAStarBoundScale:
    def test_generated_graphs_keep_the_unscaled_heuristic(self):
        """Default lengths are the great circle itself: the scale is exactly
        1.0, so A*'s routes (and every digest downstream) are unchanged."""
        for name in ("lattice-oneway", "lattice-twoway", "radial", "planar-7",
                     "planar-23"):
            assert NETWORKS[name].frozen().bound_scale == 1.0
        assert manhattan_city(n_avenues=16, n_streets=50).frozen().bound_scale == 1.0

    @pytest.mark.parametrize("name", ["adversarial-1", "adversarial-2"])
    def test_undercut_graphs_are_exact_on_every_pair(self, name):
        """Zero-length edges put the scale at 0; the unscaled heuristic's
        paths were longer than Dijkstra's on most pairs of these graphs."""
        network, nodes = NETWORKS[name], NODES[name]
        assert network.frozen().bound_scale == 0.0
        longer = 0
        for source in nodes:
            for target in nodes:
                assert_astar_exact(network, source, target)
                reference = _outcome(ref_astar, network, source, target)
                if reference[0] != "no path":
                    longer += reference[0] > dijkstra_path(network, source, target)[0]
        assert longer > 0  # the graphs do exercise the bug

    def test_partial_undercut_scales_between_zero_and_one(self):
        net = RoadNetwork()
        for node in range(3):
            net.add_node(node, GeoPoint(40.7, -74.0 + 0.001 * node))
        net.add_edge(0, 1)
        net.add_edge(1, 2, length_m=0.5 * net.position(1).distance_to(net.position(2)))
        scale = net.frozen().bound_scale
        assert scale == pytest.approx(0.5, rel=1e-12)
        assert astar(net, 0, 2)[0] == dijkstra_path(net, 0, 2)[0]


class TestRouteMetricsEqualReference:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_hop_lookup_is_the_first_matching_edge(self, name):
        network = NETWORKS[name]
        hops = network.frozen().hops
        for a in network.nodes():
            for b in network.nodes():
                edge = ref_find_edge(network, a, b)
                if edge is None:
                    assert (a, b) not in hops
                else:
                    assert hops[(a, b)] == (edge.length_m, edge.travel_seconds)

    @settings(max_examples=100, deadline=None)
    @given(queries)
    def test_route_length_and_time_accumulate_in_route_order(self, query):
        network, source, target = _pick(*query)
        try:
            _dist, path = ref_dijkstra_path(network, source, target)
        except NoPathError:
            return
        length = time_s = 0.0
        for a, b in zip(path, path[1:]):
            edge = ref_find_edge(network, a, b)
            length += edge.length_m
            time_s += edge.travel_seconds
        assert network.route_length_m(path) == length
        assert network.route_time_s(path) == time_s
