"""Scenario execution: build a façade, replay the scenario, emit a report.

The runner is façade-agnostic: any :class:`~repro.sim.adapters.EngineAdapter`
surface works, so one spec can be replayed on the single engine, the
thread- or process-sharded service, the resilient runtime, the durable
engine, or the windowed batch matcher just by changing ``spec.facade``.

Determinism is a hard contract: the same spec and seed produce a
byte-identical :meth:`ScenarioReport.canonical_json` — wall-clock latencies
(and the timing assertions judged on them) live in the report's
``timing`` section, which the canonical serialization excludes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import ScenarioError, XARError
from ..resilience import ResilienceConfig, ResilientEngine
from ..resilience.audit import InvariantAuditor
from ..sim import FaultInjectingAdapter, parse_fault_policies
from ..verify.differential import Facade, make_facade
from ..workloads import trips_to_requests
from ..workloads.nyc import TripRecord
from ..workloads.synthetic import (
    corridor_workload,
    hotspot_pulse_workload,
    uniform_workload,
)

from .assertions import evaluate, evaluate_timing
from .city import region_for
from .spec import DemandSpec, ScenarioSpec


@dataclass
class ScenarioReport:
    """Everything one scenario run produced.

    ``canonical_json`` is the determinism contract: it serializes only the
    replay-derived facts (sorted keys, fixed separators), never wall-clock
    measurements, so identical spec+seed yields identical bytes.
    """

    name: str
    facade: str
    seed: int
    counts: Dict[str, int] = field(default_factory=dict)
    match_rate: float = 0.0
    audit: Dict[str, Any] = field(default_factory=dict)
    ledger: Dict[str, Any] = field(default_factory=dict)
    budget: Dict[str, Any] = field(default_factory=dict)
    assertions: List[Dict[str, Any]] = field(default_factory=list)
    #: Volatile section: latencies + timing assertions (excluded from the
    #: canonical serialization).
    timing: Dict[str, Any] = field(default_factory=dict)

    @property
    def deterministic_ok(self) -> bool:
        return all(entry["ok"] for entry in self.assertions)

    @property
    def timing_ok(self) -> bool:
        return all(entry["ok"] for entry in self.timing.get("assertions", []))

    @property
    def passed(self) -> bool:
        return self.deterministic_ok and self.timing_ok

    def to_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "facade": self.facade,
            "seed": self.seed,
            "counts": dict(self.counts),
            "match_rate": round(self.match_rate, 6),
            "audit": self.audit,
            "ledger": self.ledger,
            "budget": self.budget,
            "assertions": list(self.assertions),
            "deterministic_ok": self.deterministic_ok,
        }
        if include_timing:
            data["timing"] = dict(self.timing)
            data["passed"] = self.passed
        return data

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(include_timing=False),
            sort_keys=True, separators=(",", ":"),
        ) + "\n"

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"scenario {self.name} [{self.facade}, seed {self.seed}]: "
            f"{verdict}",
            f"  counts : " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items())
            ),
            f"  match  : {self.match_rate:.2%}   "
            f"audit violations {self.audit.get('violations', '?')}",
        ]
        for entry in self.assertions + self.timing.get("assertions", []):
            mark = "ok " if entry["ok"] else "FAIL"
            lines.append(f"  [{mark}] {entry['name']}: {entry['detail']}")
        return "\n".join(lines)


def build_facade(spec: ScenarioSpec, region) -> Facade:
    """Build the spec's façade (with fault/resilience wrapping applied)."""
    facade = make_facade(spec.facade, region, seed=spec.seed)
    target = facade.target
    if spec.faults.policies:
        try:
            policies = parse_fault_policies(spec.faults.policies)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        target = FaultInjectingAdapter(
            target, policies, seed=spec.faults.seed
        )
    if spec.faults.resilient:
        target = ResilientEngine(
            target, ResilienceConfig(seed=spec.faults.seed,
                                     sleep=lambda _s: None)
        )
    facade.target = target
    return facade


def _demand_trips(network, demand: DemandSpec, seed: int) -> List[TripRecord]:
    """Base workload + surge overlay, renumbered in arrival order."""
    if demand.workload == "uniform":
        trips = uniform_workload(
            network, n_trips=demand.requests,
            start_s=0.0, end_s=demand.duration_s, seed=seed,
        )
    elif demand.workload == "corridor":
        trips = corridor_workload(
            network, n_trips=demand.requests,
            start_s=0.0, band_s=demand.duration_s, seed=seed,
        )
    elif demand.workload == "hotspot":
        trips = hotspot_pulse_workload(
            network, n_trips=demand.requests,
            pulse_start_s=0.0, pulse_length_s=demand.duration_s, seed=seed,
        )
    else:  # pragma: no cover - spec.validate() rejects earlier
        raise ScenarioError(f"unknown workload {demand.workload!r}")

    if demand.surge is not None:
        start_s, end_s, multiplier = demand.surge
        rng = random.Random(seed * 7919 + 1)
        extra: List[TripRecord] = []
        copies = max(0, int(round(multiplier)) - 1)
        for trip in trips:
            if start_s <= trip.pickup_s < end_s:
                for _c in range(copies):
                    extra.append(dataclasses.replace(
                        trip,
                        pickup_s=min(end_s, trip.pickup_s
                                     + rng.uniform(0.0, 60.0)),
                    ))
        trips = trips + extra

    trips.sort(key=lambda t: (t.pickup_s, t.trip_id))
    return [
        dataclasses.replace(trip, trip_id=index)
        for index, trip in enumerate(trips)
    ]


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` and produces a report."""

    def __init__(self, spec: ScenarioSpec, region=None):
        spec.validate()
        self.spec = spec
        self.region = region if region is not None else region_for(spec.city)

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        spec = self.spec
        facade = build_facade(spec, self.region)
        try:
            return self._drive(facade)
        finally:
            facade.close()

    # ------------------------------------------------------------------
    def _drive(self, facade: Facade) -> ScenarioReport:
        spec = self.spec
        region = self.region
        target = facade.target
        config = region.config
        counts: Dict[str, int] = {
            "requests": 0, "matched": 0, "booked": 0, "book_conflicts": 0,
            "unmatched": 0, "search_failures": 0, "track_failures": 0,
            "cancels_applied": 0, "cancel_misses": 0,
            "fleet_created": 0, "repositioned": 0, "retired": 0,
            "crashes": 0, "max_pool": 0,
        }
        search_latencies: List[float] = []

        # --- supply -----------------------------------------------------
        # Fleet corridors mirror the demand workload unless overridden:
        # drivers travel where passengers want to go, which is what lets
        # capacity-4 rides actually fill up.
        supply = spec.supply
        fleet_kind = supply.workload or spec.demand.workload
        fleet_spec = DemandSpec(
            workload=fleet_kind, requests=max(1, supply.fleet),
            duration_s=1.0,
        )
        fleet_trips = (
            _demand_trips(region.network, fleet_spec, spec.seed * 1009 + 17)
            [: supply.fleet]
        )
        stagger_s = (
            supply.stagger_s if supply.stagger_s is not None
            else spec.demand.duration_s / max(1, supply.fleet)
        )
        for index, trip in enumerate(fleet_trips):
            depart_s = index * stagger_s
            shift_end = (
                depart_s + supply.shift_length_s
                if supply.shift_length_s is not None else None
            )
            target.create(
                trip.pickup, trip.dropoff, depart_s,
                seats=supply.seats,
                detour_limit_m=supply.detour_limit_m,
                shift_end_s=shift_end,
            )
            counts["fleet_created"] += 1

        # --- demand -----------------------------------------------------
        demand = spec.demand
        trips = _demand_trips(region.network, demand, spec.seed)
        if demand.walk_threshold_m is not None:
            requests = trips_to_requests(
                trips, window_s=demand.window_s,
                walk_threshold_m=demand.walk_threshold_m,
            )
        else:
            requests = trips_to_requests(trips, window_s=demand.window_s)
        if demand.budget_scales:
            scales = demand.budget_scales
            requests = [
                dataclasses.replace(
                    request,
                    max_detour_m=(
                        None if scales[i % len(scales)] is None
                        else config.default_detour_m * scales[i % len(scales)]
                    ),
                )
                for i, request in enumerate(requests)
            ]

        # --- replay -----------------------------------------------------
        storm = demand.cancel_storm
        storm_rng = random.Random(spec.seed * 6011 + 3)
        storm_seen: set = set()
        booked_live: List[Tuple[int, int]] = []
        occupancy: Dict[int, int] = {}
        crash_due = spec.faults.crash_every
        crash_victim = 0
        clock = 0.0

        for request in requests:
            counts["requests"] += 1
            clock = max(clock, request.window_start_s)
            if crash_due and counts["requests"] >= crash_due:
                crash_due += spec.faults.crash_every
                victim = crash_victim % getattr(target, "n_shards", 1)
                crash_victim += 1
                target.crash_shard(victim)
                counts["crashes"] += 1
            try:
                target.track_all(clock)
            except XARError:
                counts["track_failures"] += 1

            if storm is not None and storm[0] <= clock < storm[1]:
                # Every booking alive during the band flips one seeded coin:
                # heads, the passenger bails.  Bookings made before the band
                # are processed at its first in-band request — the burst.
                for key in list(booked_live):
                    if key in storm_seen:
                        continue
                    storm_seen.add(key)
                    if storm_rng.random() >= storm[2]:
                        continue
                    request_id, ride_id = key
                    try:
                        target.cancel_booking(request_id, ride_id)
                        counts["cancels_applied"] += 1
                        occupancy[ride_id] = occupancy.get(ride_id, 1) - 1
                    except XARError:
                        counts["cancel_misses"] += 1
                    booked_live.remove(key)

            started = time.perf_counter()
            try:
                options = target.search(request, demand.k)
            except XARError:
                counts["search_failures"] += 1
                continue
            finally:
                search_latencies.append(time.perf_counter() - started)

            if not options:
                counts["unmatched"] += 1
                if supply.reposition_on_miss:
                    # Forecast-chasing repositioning: offer fresh supply on
                    # the very corridor demand just went unserved on.
                    depart_s = request.window_start_s
                    shift_end = (
                        depart_s + supply.shift_length_s
                        if supply.shift_length_s is not None else None
                    )
                    try:
                        target.create(
                            request.source, request.destination, depart_s,
                            seats=supply.seats,
                            detour_limit_m=supply.detour_limit_m,
                            shift_end_s=shift_end,
                        )
                        counts["repositioned"] += 1
                    except XARError:
                        pass
                continue

            counts["matched"] += 1
            for option in options[:3]:
                try:
                    record = target.book(request, option)
                except XARError:
                    counts["book_conflicts"] += 1
                    continue
                counts["booked"] += 1
                booked_live.append((record.request_id, record.ride_id))
                occupancy[record.ride_id] = (
                    occupancy.get(record.ride_id, 0) + 1
                )
                counts["max_pool"] = max(counts["max_pool"],
                                         occupancy[record.ride_id])
                break

        # Drain: advance well past the last window so shift retirement and
        # completions settle before the final audit.
        try:
            target.track_all(clock + demand.window_s + 600.0)
        except XARError:
            counts["track_failures"] += 1

        audit = self._final_audit(facade)
        ledger = self._ledger(facade, counts)
        budget = self._budget_sweep(facade, counts)
        assertion_results = evaluate(spec.asserts, counts, audit, ledger,
                                     budget)

        timing: Dict[str, Any] = {}
        if search_latencies:
            ordered = sorted(search_latencies)
            index = min(len(ordered) - 1, int(0.95 * len(ordered)))
            timing["search_p95_ms"] = ordered[index] * 1000.0
            timing["searches_timed"] = len(ordered)
        timing["assertions"] = [
            result.to_dict()
            for result in evaluate_timing(spec.asserts, timing)
        ]

        return ScenarioReport(
            name=spec.name,
            facade=spec.facade,
            seed=spec.seed,
            counts=counts,
            match_rate=counts["matched"] / max(1, counts["requests"]),
            audit=audit,
            ledger=ledger,
            budget=budget,
            assertions=[result.to_dict() for result in assertion_results],
            timing=timing,
        )

    # ------------------------------------------------------------------
    def _final_audit(self, facade: Facade) -> Dict[str, Any]:
        if facade.xar_engines:
            violations = 0
            by_kind: Dict[str, int] = {}
            for engine in facade.xar_engines:
                report = InvariantAuditor(engine).audit()
                violations += len(report.violations)
                for kind, count in report.by_kind().items():
                    by_kind[kind] = by_kind.get(kind, 0) + count
            return {"violations": violations, "by_kind": by_kind}
        audit = getattr(facade.target, "audit", None)
        if callable(audit):
            result = audit()
            return {
                "violations": int(result.get("violations", 0)),
                "per_shard": {
                    str(k): v for k, v in result.get("per_shard", {}).items()
                },
            }
        return {"violations": 0, "by_kind": {}}

    def _ledger(self, facade: Facade, counts: Dict[str, int]) -> Dict[str, Any]:
        ledger: Dict[str, Any] = {}
        if facade.xar_engines:
            engine_bookings = sum(
                len(engine.bookings) for engine in facade.xar_engines
            )
            engine_cancellations = sum(
                len(engine.cancellations) for engine in facade.xar_engines
            )
            ledger["engine_bookings"] = engine_bookings
            ledger["engine_cancellations"] = engine_cancellations
            ledger["balanced"] = (
                engine_bookings == counts["booked"]
                and engine_cancellations == counts["cancels_applied"]
            )
            ledger["detail"] = (
                f"{engine_bookings} engine bookings == {counts['booked']} "
                f"runner bookings; {engine_cancellations} cancellations "
                f"== {counts['cancels_applied']} applied"
            )
        else:
            bookings = getattr(facade.target, "bookings", None)
            if callable(bookings):
                engine_bookings = len(bookings())
                ledger["engine_bookings"] = engine_bookings
                ledger["balanced"] = engine_bookings == counts["booked"]
                ledger["detail"] = (
                    f"{engine_bookings} shard bookings == "
                    f"{counts['booked']} runner bookings "
                    "(cancellations audited in-worker)"
                )
            else:
                ledger["balanced"] = True
                ledger["detail"] = "no ledger surface on this façade"

        batch_ledger = getattr(facade.target, "ledger", None)
        if callable(batch_ledger):
            entries = batch_ledger()
            accounted = sum(
                entries[key]
                for key in ("assigned", "fallback", "unmatched", "failed")
            )
            ledger["batch"] = entries
            ledger["balanced"] = bool(
                ledger.get("balanced", True)
                and accounted == entries["submitted"]
                and entries["committed"] == counts["booked"]
            )
        return ledger

    def _budget_sweep(
        self, facade: Facade, counts: Dict[str, int]
    ) -> Dict[str, Any]:
        if not facade.xar_engines:
            # Shard engines live in worker processes; the in-worker
            # invariant audit enforces the same per-passenger bound.
            return {"checked": 0, "violations": 0,
                    "delegated_to_audit": True}
        checked = 0
        violations = 0
        worst_over_m = 0.0
        for engine in facade.xar_engines:
            with engine.lock:
                rides = list(engine.rides.values())
                rides.extend(engine.completed_rides.values())
                for ride in rides:
                    if ride.retired:
                        counts["retired"] += 1
                    for request_id, passenger in ride.passengers.items():
                        if passenger.max_detour_m is None:
                            continue
                        checked += 1
                        consumed = ride.passenger_consumed_m(request_id)
                        over = consumed - passenger.max_detour_m
                        if over > 1e-6:
                            violations += 1
                            worst_over_m = max(worst_over_m, over)
        result: Dict[str, Any] = {"checked": checked, "violations": violations}
        if violations:
            result["worst_over_m"] = round(worst_over_m, 3)
        return result


def run_scenario(spec: ScenarioSpec, region=None) -> ScenarioReport:
    """Convenience wrapper: build the runner and execute the spec."""
    return ScenarioRunner(spec, region=region).run()
