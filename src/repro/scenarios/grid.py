"""The pinned scenario matrix swept by CI (``xar scenario sweep``).

Each entry is a fully-declared :class:`~repro.scenarios.spec.ScenarioSpec`
pinned by name and seed, so a red sweep names the exact spec+seed to
replay locally.  The matrix spans the dimensions the engine grew across
PRs: high-capacity pooling with per-passenger budgets, fleet dynamics
(shifts, repositioning), demand overlays (surge, cancellation storms),
multi-region topology across shards, chaos policies, and every façade
family (single engine, thread shards, process shards, durable, batch).
"""

from __future__ import annotations

from typing import Dict, List

from ..exceptions import ScenarioError

from .spec import (
    AssertionSpec,
    CitySpec,
    DemandSpec,
    FaultSpec,
    ScenarioSpec,
    SupplySpec,
)

#: Tiny city reused by the fast scenarios (region build stays cheap).
_TINY = CitySpec(kind="lattice", avenues=5, streets=10)
_SMALL = CitySpec(kind="lattice", avenues=6, streets=12)

PINNED: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        # Tier-1 smoke: small, fast, runs on every pytest invocation.
        ScenarioSpec(
            name="smoke_tiny",
            facade="xar",
            seed=11,
            city=_TINY,
            supply=SupplySpec(fleet=10, seats=4),
            demand=DemandSpec(
                workload="uniform", requests=50, duration_s=1200.0,
                budget_scales=(1.0, None),
            ),
            asserts=AssertionSpec(min_booked=5, min_pool=2),
        ),
        # High-capacity pooling: 4-seat fleet, heterogeneous passenger
        # budgets, corridor demand so rides actually fill up.
        ScenarioSpec(
            name="capacity4_budgets",
            facade="xar",
            seed=5,
            city=_SMALL,
            supply=SupplySpec(fleet=8, seats=4),
            demand=DemandSpec(
                workload="corridor", requests=80, duration_s=1200.0,
                budget_scales=(0.25, 0.5, 1.0, None),
            ),
            asserts=AssertionSpec(min_booked=10, min_match_rate=0.1, min_pool=3),
        ),
        # The same pooling pressure through the 2-shard thread service.
        ScenarioSpec(
            name="corridor_pool_shard2",
            facade="shard2",
            seed=7,
            city=_SMALL,
            supply=SupplySpec(fleet=10, seats=4),
            demand=DemandSpec(
                workload="corridor", requests=100, duration_s=1500.0,
                budget_scales=(0.5, 1.0),
            ),
            asserts=AssertionSpec(min_booked=15, min_pool=3),
        ),
        # Event egress + surge through the windowed batch matcher; the
        # batch ledger must account for every submitted request.
        ScenarioSpec(
            name="hotspot_surge_batch",
            facade="batch",
            seed=13,
            city=_SMALL,
            supply=SupplySpec(fleet=12, seats=4),
            demand=DemandSpec(
                workload="hotspot", requests=70, duration_s=900.0,
                surge=(0.0, 450.0, 2.0),
                budget_scales=(1.0, None),
            ),
            asserts=AssertionSpec(min_booked=10, min_pool=2),
        ),
        # Mid-window cancellation storm: half of all bookings cancelled in
        # one burst across two thread shards; seats/budgets must restore
        # exactly and the auditor must stay clean.
        ScenarioSpec(
            name="cancel_storm_shard2",
            facade="shard2",
            seed=17,
            city=_SMALL,
            supply=SupplySpec(fleet=10, seats=4),
            demand=DemandSpec(
                workload="corridor", requests=90, duration_s=1500.0,
                budget_scales=(0.5, 1.0, None),
                cancel_storm=(300.0, 1500.0, 0.5),
            ),
            asserts=AssertionSpec(min_booked=20, min_cancels=10),
        ),
        # Two lattices joined by bridges, spatially split across 2 shards:
        # corridor demand runs diagonal so cross-region trips hammer the
        # bridge corridors and cross-shard fan-out.
        ScenarioSpec(
            name="twin_bridge_shard2",
            facade="shard2",
            seed=23,
            city=CitySpec(kind="twin", avenues=5, streets=10,
                          separation_m=2000.0, bridges=2),
            supply=SupplySpec(fleet=12, seats=4,
                              detour_limit_m=8000.0),
            demand=DemandSpec(
                workload="corridor", requests=80, duration_s=1500.0,
                walk_threshold_m=1200.0,
            ),
            asserts=AssertionSpec(min_booked=15, min_pool=3),
        ),
        # Driver shifts: the whole fleet retires mid-run and fresh supply
        # is repositioned onto unserved corridors; retirement must drain
        # passengers strand-free (clean audit) and keep ledgers balanced.
        ScenarioSpec(
            name="shift_churn_reposition",
            facade="xar",
            seed=29,
            city=_SMALL,
            supply=SupplySpec(fleet=10, seats=4,
                              shift_length_s=300.0, reposition_on_miss=True),
            demand=DemandSpec(
                workload="uniform", requests=100, duration_s=2400.0,
                budget_scales=(1.0, None),
            ),
            asserts=AssertionSpec(min_booked=10),
        ),
        # Chaos: tracking dropouts and driver cancellations injected into
        # the plain engine; the replay absorbs them and the audit stays clean.
        ScenarioSpec(
            name="chaos_faults_xar",
            facade="xar",
            seed=31,
            city=_SMALL,
            supply=SupplySpec(fleet=10, seats=4),
            demand=DemandSpec(
                workload="uniform", requests=90, duration_s=1500.0,
                budget_scales=(1.0,),
            ),
            faults=FaultSpec(
                policies="dropout=0.1,cancel=0.05", seed=13,
            ),
            asserts=AssertionSpec(min_booked=5),
        ),
        # Supervised subprocess shards with real SIGKILL crash injection:
        # every crash must recover through WAL replay with the run's
        # accounting intact.
        ScenarioSpec(
            name="proc2_crash_recovery",
            facade="proc2",
            seed=37,
            city=_TINY,
            supply=SupplySpec(fleet=8, seats=4),
            demand=DemandSpec(
                workload="uniform", requests=60, duration_s=1200.0,
            ),
            faults=FaultSpec(crash_every=25),
            asserts=AssertionSpec(min_booked=5),
        ),
        # Durable single engine under a cancellation storm: WAL'd cancel
        # ops and exact budget restoration on the recovery path's engine.
        ScenarioSpec(
            name="durable_cancel_storm",
            facade="durable",
            seed=41,
            city=_TINY,
            supply=SupplySpec(fleet=8, seats=4),
            demand=DemandSpec(
                workload="corridor", requests=70, duration_s=1200.0,
                budget_scales=(0.5, 1.0),
                cancel_storm=(200.0, 1200.0, 0.4),
            ),
            asserts=AssertionSpec(min_booked=10, min_cancels=3),
        ),
    )
}


def pinned_names() -> List[str]:
    return sorted(PINNED)


def get(name: str) -> ScenarioSpec:
    try:
        return PINNED[name]
    except KeyError:
        raise ScenarioError(
            f"unknown pinned scenario {name!r} "
            f"(choose from {pinned_names()})"
        ) from None
