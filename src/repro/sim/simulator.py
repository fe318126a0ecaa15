"""The ride-share replay loop (paper Section X-A2).

For each request in pickup-time order: search for existing rides; if matches
exist, book the best one; otherwise create a new ride from the request and
make it available to be shared.  Tracking runs on a fixed simulated-time
cadence so rides on the move stop matching clusters behind them.

Look-to-book behaviour is a first-class parameter: ``looks_per_book`` extra
searches are issued per request before the booking decision, reproducing the
paper's look-to-book experiments (Figure 5b) and the MMTP integration regime.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.booking import BookingRecord
from ..core.request import RideRequest
from ..exceptions import XARError
from .adapters import EngineAdapter, raw_engine
from .metrics import OperationTimings, SimulationReport


@dataclass
class SimulatorConfig:
    """Knobs of one replay run."""

    #: Return at most k matches per search (None = all, the paper's setting).
    k_matches: Optional[int] = None
    #: Additional "look" searches per request (look-to-book ratio - 1).
    looks_per_book: int = 0
    #: Simulated seconds between track_all sweeps (0 disables tracking).
    track_every_s: float = 300.0
    #: Create a ride from unmatched requests (the paper's policy).
    create_on_miss: bool = True
    #: Probability (per processed request) that one random not-yet-departed
    #: ride is withdrawn — driver cancellations, a dynamic-scenario stressor.
    #: Legacy knob: prefer a :class:`repro.sim.faults.DriverCancellation`
    #: policy on a :class:`repro.sim.faults.FaultInjectingAdapter`.
    cancellation_rate: float = 0.0
    #: Seed for the cancellation draws.
    cancellation_seed: int = 0
    #: Simulated seconds between invariant-audit sweeps (0 disables).  Needs
    #: the adapter stack to bottom out at an :class:`repro.core.XAREngine`.
    audit_every_s: float = 0.0
    #: Self-heal (re-index) when an audit sweep finds violations.
    audit_heal: bool = True


class RideShareSimulator:
    """Replays request streams against any :class:`EngineAdapter`."""

    def __init__(self, adapter: EngineAdapter, config: Optional[SimulatorConfig] = None):
        self.adapter = adapter
        self.config = config or SimulatorConfig()

    def run(self, requests: Iterable[RideRequest]) -> SimulationReport:
        config = self.config
        timings = OperationTimings()
        matches_per_search = []
        detour_errors = []
        walks = []
        n_requests = n_matched = n_booked = n_created = 0
        n_cancelled = n_search_failures = n_create_failures = 0
        last_track = None
        last_audit = None
        cancel_rng = random.Random(config.cancellation_seed)

        # Optional invariant auditing: only when the adapter stack bottoms
        # out at an XAREngine (T-Share has its own structures).
        auditor = None
        audit_stats = {"sweeps": 0, "violations_found": 0, "healed": 0}
        if config.audit_every_s > 0:
            engine = raw_engine(self.adapter)
            if engine is not None:
                from ..resilience.audit import InvariantAuditor

                auditor = InvariantAuditor(engine)

        def sweep_audit() -> None:
            audit_report = auditor.audit()
            audit_stats["sweeps"] += 1
            audit_stats["violations_found"] += len(audit_report.violations)
            if config.audit_heal and not audit_report.ok:
                audit_stats["healed"] += auditor.heal(audit_report)

        #: Per-request fault pulse (cancellation / corruption policies).
        on_request = getattr(self.adapter, "on_request", None)

        for request in requests:
            n_requests += 1
            now = request.window_start_s
            if config.track_every_s > 0 and (
                last_track is None or now - last_track >= config.track_every_s
            ):
                self.adapter.track_all(now)
                last_track = now
            if on_request is not None:
                on_request(now)
            if auditor is not None and (
                last_audit is None or now - last_audit >= config.audit_every_s
            ):
                sweep_audit()
                last_audit = now

            if config.cancellation_rate > 0 and cancel_rng.random() < config.cancellation_rate:
                # A driver still on the road gives up (the ride vanishes for
                # future matching; passengers already dropped are unaffected
                # in this model).
                pending = [
                    ride
                    for ride in self.adapter.active_rides()
                    if ride.arrival_s > now
                ]
                if pending:
                    self.adapter.cancel(cancel_rng.choice(pending))
                    n_cancelled += 1

            # Extra looks first (high look-to-book regimes).  A search that
            # fails (an XARError: a shard shed or quarantined, an uncovered
            # endpoint) counts as zero matches — the request degrades to
            # create-on-miss rather than killing the replay.
            for _look in range(config.looks_per_book):
                t0 = time.perf_counter()
                try:
                    self.adapter.search(request, config.k_matches)
                except XARError:
                    pass
                timings.search_s.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            try:
                matches = self.adapter.search(request, config.k_matches)
            except XARError:
                matches = []
                n_search_failures += 1
            timings.search_s.append(time.perf_counter() - t0)
            matches_per_search.append(len(matches))

            if matches:
                n_matched += 1
                booked = False
                for match in matches:  # best-first; fall through stale ones
                    t0 = time.perf_counter()
                    try:
                        record = self.adapter.book(request, match)
                    except Exception:
                        timings.book_s.append(time.perf_counter() - t0)
                        continue
                    timings.book_s.append(time.perf_counter() - t0)
                    booked = True
                    if isinstance(record, BookingRecord):
                        detour_errors.append(record.approximation_error_m)
                        walks.append(
                            record.walk_source_m + record.walk_destination_m
                        )
                    break
                if booked:
                    n_booked += 1
                    continue
            if config.create_on_miss:
                t0 = time.perf_counter()
                try:
                    self.adapter.create(request.source, request.destination, now)
                except XARError:
                    # Routing back-end down even for the fresh ride: the
                    # request goes unserved but the replay survives.
                    n_create_failures += 1
                else:
                    n_created += 1
                timings.create_s.append(time.perf_counter() - t0)

        # Post-run audit: verify (and optionally heal) before reporting, so
        # "zero post-run violations" is a meaningful acceptance criterion.
        if auditor is not None:
            sweep_audit()  # heals (when enabled) anything since the last sweep
            audit_stats["post_run_violations"] = len(auditor.audit().violations)

        report = SimulationReport(
            engine_name=self.adapter.name,
            n_requests=n_requests,
            n_matched=n_matched,
            n_booked=n_booked,
            n_created=n_created,
            timings=timings,
            matches_per_search=matches_per_search,
            detour_approx_errors_m=detour_errors,
            walk_distances_m=walks,
            n_cancelled=n_cancelled,
        )
        if auditor is not None:
            report.audit = dict(audit_stats)

        # Fault accounting contributed by a fault-injecting adapter.
        fault_stats = getattr(self.adapter, "fault_stats", None)
        if fault_stats is not None:
            report.fault_injections = dict(fault_stats())
            report.n_cancelled += getattr(self.adapter, "n_cancelled", 0)
        if n_search_failures or n_create_failures:
            report.resilience = {
                "search_failures": n_search_failures,
                "create_failures": n_create_failures,
            }
        engine = raw_engine(self.adapter)
        if engine is not None and hasattr(engine, "rollbacks"):
            report.n_rollbacks = len(engine.rollbacks)
        return report
