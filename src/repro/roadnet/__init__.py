"""Road network substrate: graph model, shortest paths, synthetic cities.

The paper consumes OpenStreetMap road data and OpenTripPlanner for routing.
This package provides the equivalent substrate from scratch:

* :class:`~repro.roadnet.graph.RoadNetwork` — a directed, weighted road graph
  whose nodes carry coordinates (OSM "waypoints"),
* :mod:`~repro.roadnet.shortest_path` — A* (ride creation), Dijkstra and
  landmark shortest-path trees (booking splices), and the many-source
  kernels the region builder uses,
* :mod:`~repro.roadnet.generators` — parametric synthetic cities (Manhattan
  lattice, radial, random planar) standing in for the NYC OSM extract,
* :mod:`~repro.roadnet.travel_time` — distance→time models.
"""

from .graph import RoadEdge, RoadNetwork
from .shortest_path import astar, dijkstra_path
from .generators import (
    manhattan_city,
    radial_city,
    random_planar_city,
)
from .travel_time import TravelTimeModel, UniformSpeedModel, EdgeSpeedModel
from .io import load_network, save_network, network_from_dict, network_to_dict

__all__ = [
    "RoadEdge",
    "RoadNetwork",
    "dijkstra_path",
    "astar",
    "manhattan_city",
    "radial_city",
    "random_planar_city",
    "TravelTimeModel",
    "UniformSpeedModel",
    "EdgeSpeedModel",
    "save_network",
    "load_network",
    "network_to_dict",
    "network_from_dict",
]
