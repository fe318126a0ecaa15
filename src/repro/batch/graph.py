"""Candidate graph builder: window of requests × active rides.

Edges come straight out of the inner engine's search path, so each one has
already passed the full XAR feasibility check (walk radius, seats, timing,
ε-bounded detour splice).  The builder only re-shapes them into the plain
:class:`~repro.batch.solver.Candidate` edges the solver consumes, and reads
per-ride budgets (seats left, remaining detour allowance) off the live ride
objects so the solver never over-packs a ride the engine would reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.exceptions import XARError

from .solver import Candidate, RideBudget
from .window import PendingRequest


@dataclass
class CandidateGraph:
    """One window's bipartite request×ride graph plus ride budgets."""

    pendings: Sequence[PendingRequest]
    candidates: List[Candidate] = field(default_factory=list)
    budgets: Dict[int, RideBudget] = field(default_factory=dict)
    #: request_index -> ranked MatchOption list from the inner search.
    options: Dict[int, List[Any]] = field(default_factory=dict)
    #: request_index -> MatchOption keyed by ride_id (for commit lookup).
    option_by_ride: Dict[int, Dict[int, Any]] = field(default_factory=dict)


def edge_cost(option: Any, detour_weight: float) -> float:
    """Scalar edge cost: walk metres plus weighted detour metres."""
    return option.total_walk_m + detour_weight * option.detour_estimate_m


def build_candidate_graph(
    inner: Any,
    pendings: Sequence[PendingRequest],
    *,
    k_candidates: int = 8,
    detour_weight: float = 0.1,
) -> CandidateGraph:
    """Search each pending request against ``inner`` and collect edges.

    A search that raises :class:`XARError` marks that pending as failed (the
    caller re-raises it to the submitter) instead of poisoning the window.
    Budgets snapshot ``seats_available`` and the *remaining* ``detour_limit_m``
    of every active ride; edges onto rides that vanished between search and
    snapshot are dropped by the solver.
    """
    graph = CandidateGraph(pendings=pendings)
    for ride in inner.active_rides():
        graph.budgets[ride.ride_id] = RideBudget(
            ride_id=ride.ride_id,
            seats=ride.seats_available,
            detour_budget_m=ride.detour_limit_m,
        )
    for index, pending in enumerate(pendings):
        k = k_candidates if pending.k is None else max(pending.k, k_candidates)
        try:
            options = inner.search(pending.request, k)
        except XARError as exc:
            pending.fail(exc)
            continue
        graph.options[index] = options
        by_ride = graph.option_by_ride.setdefault(index, {})
        for option in options:
            by_ride.setdefault(option.ride_id, option)
            graph.candidates.append(
                Candidate(
                    request_index=index,
                    ride_id=option.ride_id,
                    cost=edge_cost(option, detour_weight),
                    detour_m=option.detour_estimate_m,
                )
            )
    return graph
