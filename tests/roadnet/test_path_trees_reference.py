"""Landmark shortest-path trees equal ``dijkstra_path``, path for path.

``shortest_path_trees`` derives every node's parent from many-source labels
instead of running a Dijkstra per root, and booking splices read their
paths from it.  A route is only byte-identical if the tie-breaking is, so
every tree path must ``==`` ``dijkstra_path``'s node list (and an
unreachable target must raise the same ``NoPathError``) on every network of
the shortest-path reference suite: lattices full of equal-length
alternatives, and adversarial graphs with zero-length, parallel and one-way
edges and an unreachable pocket.  Roots with a zero-weight tie must take
the exact Dijkstra fallback, and only those.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import numpy as np
import pytest

import repro.roadnet.shortest_path as shortest_path
from repro.config import XARConfig
from repro.core import XAREngine
from repro.discretization import build_region
from repro.exceptions import RoadNetworkError
from repro.geo import GeoPoint
from repro.roadnet import RoadNetwork, dijkstra_path, manhattan_city, random_planar_city
from repro.roadnet.shortest_path import shortest_path_trees
from tests.reference_write_path import ref_dijkstra_all
from tests.roadnet.test_shortest_path_reference import NETWORKS, NODES, _outcome

#: Selected by ``pytest -m reference -k <seed>`` (CI's unpinned-seed run).
pytestmark = pytest.mark.reference

#: The tier-1 seeds, plus any the environment names: CI adds one derived
#: from its run number, so every run builds trees nobody has looked at.
SEEDS = [11, 12, 13] + [
    int(seed) for seed in os.environ.get("XAR_KERNEL_SEEDS", "").split(",") if seed
]


def _integer_lattice(seed: int) -> RoadNetwork:
    """A lattice with lengths of 100, 200 or 300 m, some streets one-way and
    ids shuffled against the layout.  Its float sums are exact, so nodes
    share labels and have several tight in-neighbours, with equal labels
    (the dense index decides) and with different ones (the label does)."""
    rng = random.Random(seed)
    rows, cols = 8, 9
    ids = rng.sample(range(10_000), rows * cols)
    net = RoadNetwork()
    for k, node in enumerate(ids):
        net.add_node(node, GeoPoint(40.7 + 0.001 * (k // cols), -74.0 + 0.001 * (k % cols)))
    for k, node in enumerate(ids):
        for step, inside in ((1, k % cols + 1 < cols), (cols, k + cols < len(ids))):
            if inside:
                net.add_edge(node, ids[k + step], length_m=rng.choice([100.0, 200.0, 300.0]),
                             bidirectional=rng.random() < 0.7)
    return net


TREE_NETWORKS = dict(NETWORKS, **{f"integer-{seed}": _integer_lattice(seed) for seed in (1, 2)})


def _dijkstra_nodes(network, source, target):
    got = _outcome(dijkstra_path, network, source, target)
    return got if got[0] == "no path" else got[1]


def assert_parent_chains_end_at_the_root(network, trees) -> None:
    """Pointer doubling over each tree: every reachable node's ancestors end
    at its root (a cycle would trap them), before any path is walked."""
    rows = network.frozen().csr(reverse=True)
    n = trees.slots.shape[1]
    none = np.iinfo(trees.slots.dtype).max
    for start, slots in zip(trees.roots, trees.slots):
        linked = slots != none
        parent = np.arange(n)
        parent[linked] = rows.target[rows.offsets[:-1][linked] + slots[linked]]
        for _doubling in range(n.bit_length()):
            parent = parent[parent]
        assert np.all(parent[linked] == start)


def assert_trees_equal_dijkstra(network, trees, roots, targets) -> None:
    assert_parent_chains_end_at_the_root(network, trees)
    for root in roots:
        for target in targets:
            assert _outcome(trees.path, root, target) == _dijkstra_nodes(
                network, root, target
            ), (root, target)


def _tie_roots(network, roots) -> set:
    """Roots whose reference labels have a tight edge between equal finite
    labels: where Dijkstra's settle order may leave ``(label, index)``."""
    ties = set()
    for root in roots:
        d = ref_dijkstra_all(network, root)
        for edge in network.edges():
            if edge.source in d and edge.target in d:
                du, dv = d[edge.source], d[edge.target]
                if du + edge.length_m == dv and du == dv:
                    ties.add(root)
                    break
    return ties


@pytest.fixture
def fallbacks(monkeypatch):
    """Roots (node ids) that went through the exact-Dijkstra fallback."""
    seen = []
    exact = shortest_path._dijkstra_parents

    def counting(frozen, start):
        seen.append(frozen.ids[start])
        return exact(frozen, start)

    monkeypatch.setattr(shortest_path, "_dijkstra_parents", counting)
    return seen


@pytest.mark.parametrize("name", sorted(TREE_NETWORKS))
def test_every_root_every_target(name, fallbacks):
    network = TREE_NETWORKS[name]
    nodes = sorted(network.nodes())
    trees = shortest_path_trees(network, nodes)
    assert_trees_equal_dijkstra(network, trees, nodes, nodes)
    # The fallback runs for exactly the roots with a zero-weight tie.
    assert set(fallbacks) == _tie_roots(network, nodes)
    if name.startswith("adversarial"):
        assert fallbacks
    else:
        assert not fallbacks


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_repeated_roots_across_blocks(seed, monkeypatch):
    rng = random.Random(seed)
    network = random_planar_city(n_nodes=150, k_nearest=rng.choice([3, 4]), seed=seed)
    nodes = sorted(network.nodes())
    roots = rng.choices(nodes, k=30) + rng.sample(nodes, 5) * 2
    rng.shuffle(roots)
    whole = shortest_path_trees(network, roots)
    # Three roots per block (14 blocks, a short last one) and three
    # labels' worth of many-source sources per sweep block.
    monkeypatch.setattr(shortest_path, "_TREE_BLOCK", 3)
    monkeypatch.setattr(shortest_path, "_BLOCK_LABELS", 3 * len(nodes))
    blocked = shortest_path_trees(network, roots)
    assert blocked.slots.tobytes() == whole.slots.tobytes()
    assert_trees_equal_dijkstra(network, blocked, set(roots), rng.sample(nodes, 40))


@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_roots_one_per_block(seed, monkeypatch, fallbacks):
    name = random.Random(seed).choice(["adversarial-1", "adversarial-2"])
    network, nodes = NETWORKS[name], NODES[name]
    roots = random.Random(seed).sample(nodes, len(nodes))
    monkeypatch.setattr(shortest_path, "_TREE_BLOCK", 1)
    trees = shortest_path_trees(network, roots)
    assert_trees_equal_dijkstra(network, trees, roots, nodes)
    assert set(fallbacks) == _tie_roots(network, roots) != set()


def test_slots_fit_the_smallest_dtype_and_are_read_only():
    network, nodes = NETWORKS["lattice-twoway"], NODES["lattice-twoway"]
    trees = shortest_path_trees(network, nodes[:5])
    assert trees.slots.dtype == np.uint8
    assert trees.nbytes == 5 * len(nodes)
    for array in (trees.slots, trees.roots):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(RoadNetworkError):
        shortest_path_trees(network, [-1])
    with pytest.raises(RoadNetworkError):
        trees.path(nodes[0], -1)
    assert trees.path(nodes[-1], nodes[0]) is None  # not a root
    assert trees.path(nodes[0], nodes[0]) == [nodes[0]]


# ----------------------------------------------------------------------
# The region's landmark trees, as the booking splice reads them
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lattice_region():
    return build_region(manhattan_city(n_avenues=6, n_streets=12), XARConfig.validated())


def _replay(region, requests):
    """search -> book the best / create on a miss, then cancel every third
    booking (the un-splice reads the trees too); the engine afterwards."""
    engine = XAREngine(region)
    for request in requests:
        matches = engine.search(request, 5)
        if matches:
            engine.book(request, matches[0])
        else:
            engine.create_ride(request.source, request.destination,
                               request.window_start_s)
    for booking in list(engine.bookings)[::3]:
        if booking.ride_id in engine.rides:
            engine.cancel_booking(booking.request_id, booking.ride_id)
    return engine


def _routes(engine):
    return (
        [(rid, ride.route, [(v.node, v.route_index, v.label) for v in ride.via_points])
         for rid, ride in sorted(engine.rides.items())],
        [(b.ride_id, b.detour_actual_m.hex(), b.shortest_paths_computed)
         for b in engine.bookings],
        [(c.ride_id, c.route_delta_m.hex(), c.shortest_paths_computed)
         for c in engine.cancellations],
    )


def test_racing_first_splice_all_read_identical_paths(lattice_region):
    region = lattice_region
    nodes = sorted(region.network.nodes())
    pairs = [(landmark.node, node) for landmark in region.landmarks[:6]
             for node in nodes[::7]]
    expected = [_dijkstra_nodes(region.network, a, b) for a, b in pairs]
    n_threads = 8
    results = [None] * n_threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            region._path_trees = None
            barrier = threading.Barrier(n_threads)

            def work(slot, barrier=barrier):
                barrier.wait(timeout=10)
                results[slot] = [_outcome(region.path_trees().path, a, b)
                                 for a, b in pairs]

            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for got in results:
                assert got == expected
    finally:
        sys.setswitchinterval(interval)


def test_trees_are_built_by_the_first_splice_and_never_written(city, workload):
    region = build_region(city, XARConfig.validated())
    engine = XAREngine(region)
    for request in workload[:40]:
        engine.create_ride(request.source, request.destination, request.window_start_s)
        engine.search(request, 5)
    assert region._path_trees is None  # search and create never build them
    engine = _replay(region, workload[:200])
    assert engine.bookings
    trees = region._path_trees
    assert trees is not None
    before = trees.slots.tobytes()
    _replay(region, workload[200:400])
    assert region.path_trees() is trees
    assert trees.slots.tobytes() == before
    assert not trees.slots.flags.writeable


def test_a_replay_splices_the_same_routes_without_the_trees(region, workload, monkeypatch):
    """Every booking's routes, via-points, detours and path counts are the
    ones the all-Dijkstra splice produced; only splices that do not start at
    a landmark node still search."""
    import repro.core.booking as booking

    calls = []
    search = booking.dijkstra_path

    def counting(*args):
        calls.append(args[1:])
        return search(*args)

    monkeypatch.setattr(booking, "dijkstra_path", counting)
    with_trees = _routes(_replay(region, workload[:250]))
    searched = list(calls)
    calls.clear()
    monkeypatch.setattr(shortest_path.PathTrees, "path", lambda self, a, b: None)
    without = _routes(_replay(region, workload[:250]))
    assert with_trees == without
    assert with_trees[2]  # cancellations ran
    landmark_nodes = {landmark.node for landmark in region.landmarks}
    assert all(source not in landmark_nodes for source, _target in searched)
    assert 0 < len(searched) < len(calls)
