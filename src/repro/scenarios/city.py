"""Scenario city builders: single lattices and bridged twin regions.

The twin city is two Manhattan-style lattices separated by an empty gap and
joined by a small number of two-way bridge edges.  Its point is spatial:
the service's shard map partitions geographically, so with two shards each
lattice lands on its own shard and every cross-region trip exercises
cross-shard search fan-out plus the bridges' capacity as a routing choke
point.  Strong connectivity is verified at build time, exactly like the
stock generators.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..discretization import DiscretizedRegion, build_region
from ..config import XARConfig
from ..exceptions import ScenarioError
from ..geo import destination_point
from ..roadnet import RoadNetwork, manhattan_city
from ..roadnet.generators import AVENUE_SPEED, DEFAULT_ORIGIN, is_strongly_connected

from .spec import CitySpec


def build_city(spec: CitySpec) -> RoadNetwork:
    """Build the scenario's road network from its city spec."""
    if spec.kind == "lattice":
        return manhattan_city(n_avenues=spec.avenues, n_streets=spec.streets)
    if spec.kind == "twin":
        return twin_city(
            n_avenues=spec.avenues,
            n_streets=spec.streets,
            separation_m=spec.separation_m,
            n_bridges=spec.bridges,
        )
    raise ScenarioError(f"unknown city kind {spec.kind!r}")


def twin_city(
    n_avenues: int = 6,
    n_streets: int = 12,
    avenue_spacing_m: float = 250.0,
    street_spacing_m: float = 100.0,
    separation_m: float = 2000.0,
    n_bridges: int = 2,
) -> RoadNetwork:
    """Two lattices joined by ``n_bridges`` two-way bridge edges.

    The west lattice keeps its stock geometry; the east one is shifted east
    by the west lattice's width plus ``separation_m``.  Bridges connect the
    west lattice's easternmost avenue to the east lattice's westernmost
    avenue at evenly spaced streets, so every cross-region route funnels
    through at most ``n_bridges`` corridors.
    """
    if n_bridges < 1:
        raise ScenarioError("a twin city needs at least one bridge")
    if n_bridges > n_streets:
        raise ScenarioError(
            f"cannot place {n_bridges} bridges across {n_streets} streets"
        )
    west = manhattan_city(
        n_avenues=n_avenues, n_streets=n_streets,
        avenue_spacing_m=avenue_spacing_m, street_spacing_m=street_spacing_m,
    )
    east_origin = destination_point(
        DEFAULT_ORIGIN, 90.0,
        (n_avenues - 1) * avenue_spacing_m + separation_m,
    )
    east = manhattan_city(
        n_avenues=n_avenues, n_streets=n_streets,
        avenue_spacing_m=avenue_spacing_m, street_spacing_m=street_spacing_m,
        origin=east_origin,
    )

    merged = RoadNetwork()
    offset = west.node_count
    for node in west.nodes():
        merged.add_node(node, west.position(node))
    for node in east.nodes():
        merged.add_node(node + offset, east.position(node))
    for edge in west.edges():
        merged.add_edge(edge.source, edge.target,
                        length_m=edge.length_m, speed_mps=edge.speed_mps)
    for edge in east.edges():
        merged.add_edge(edge.source + offset, edge.target + offset,
                        length_m=edge.length_m, speed_mps=edge.speed_mps)

    # Bridge street indices, evenly spread (lattice node ids are
    # avenue-major: node (ai, si) = ai * n_streets + si).
    for k in range(n_bridges):
        si = (k * (n_streets - 1)) // max(1, n_bridges - 1) if n_bridges > 1 \
            else n_streets // 2
        west_node = (n_avenues - 1) * n_streets + si
        east_node = offset + si  # east lattice's avenue 0, street si
        merged.add_edge(west_node, east_node,
                        speed_mps=AVENUE_SPEED, bidirectional=True)

    if not is_strongly_connected(merged):
        raise ScenarioError("twin city is not strongly connected")
    return merged


#: Session-level region cache: scenario sweeps reuse regions across specs
#: with identical city sections (the region build runs shortest paths from
#: the whole landmark set).
_REGION_CACHE: Dict[Tuple, DiscretizedRegion] = {}


def region_for(spec: CitySpec) -> DiscretizedRegion:
    """Build (or fetch from cache) the discretized region for a city spec."""
    key = (
        spec.kind, spec.avenues, spec.streets, spec.delta_m, spec.poi_seed,
        spec.separation_m, spec.bridges,
    )
    region = _REGION_CACHE.get(key)
    if region is None:
        network = build_city(spec)
        config = XARConfig.validated(delta_m=spec.delta_m)
        region = build_region(network, config, poi_seed=spec.poi_seed)
        _REGION_CACHE[key] = region
    return region
