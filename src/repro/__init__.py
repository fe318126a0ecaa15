"""Xhare-a-Ride (XAR) — ICDE 2017 reproduction.

A search-optimized dynamic peer-to-peer ride sharing system with an additive
approximation guarantee, built from scratch in Python: hierarchical
three-tier region discretization (grids → landmarks → clusters), the
GREEDYSEARCH bicriteria clustering algorithm, an in-memory spatio-temporal
ride index, a shortest-path-free search runtime, the T-Share baseline, a
multi-modal trip planner with Aider/Enhancer integration modes, and the full
evaluation harness.

Quickstart::

    from repro import XARConfig, XAREngine, build_region, manhattan_city

    network = manhattan_city(n_avenues=12, n_streets=40)
    region = build_region(network, XARConfig.validated())
    engine = XAREngine(region)

    ride = engine.create_ride(source, destination, departure_s=8 * 3600)
    request = engine.make_request(src, dst, 8 * 3600, 8.2 * 3600)
    matches = engine.search(request)       # no shortest paths computed
    record = engine.book(request, matches[0])

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first use: importing one submodule (a shard process imports
# ``repro.service.proc.worker``) must not load every other one.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("XARConfig", "DEFAULT_CONFIG", "paper_nyc_config"),
    ".exceptions": (
        "XARError",
        "ConfigurationError",
        "RoadNetworkError",
        "NoPathError",
        "DiscretizationError",
        "UncoveredLocationError",
        "RideError",
        "UnknownRideError",
        "BookingError",
        "RequestError",
        "PlannerError",
        "ResilienceError",
        "DeadlineExceededError",
    ),
    ".geo": ("GeoPoint", "BoundingBox", "GridIndex"),
    ".roadnet": (
        "RoadNetwork", "manhattan_city", "radial_city", "random_planar_city",
    ),
    ".landmarks": ("Landmark", "synthesize_pois", "extract_landmarks"),
    ".clustering": ("greedy_search", "landmark_distance_matrix"),
    ".discretization": (
        "Cluster", "WalkOption", "DiscretizedRegion", "build_region",
    ),
    ".core": (
        "validate_engine",
        "EngineInvariantError",
        "BookingRollback",
        "Ride",
        "RideStatus",
        "RideRequest",
        "MatchOption",
        "BookingRecord",
        "XAREngine",
    ),
    ".resilience": (
        "AuditReport",
        "InvariantAuditor",
    ),
    ".baselines": ("TShareEngine",),
    ".workloads": ("NYCWorkloadGenerator", "trips_to_requests"),
    ".mmtp": ("MultiModalPlanner", "synthetic_feed", "AiderMode",
              "EnhancerMode"),
    ".social": ("SocialNetwork", "small_world_network", "social_ranking"),
})
__all__.append("__version__")
