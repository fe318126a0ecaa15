"""Invariant auditor: sweep the engine, report violations, self-heal.

Where :func:`repro.core.validation.validate_engine` raises on the *first*
broken invariant (a test-suite assertion), the auditor is the production
tool: it collects *every* violation into an :class:`AuditReport` without
raising, and :meth:`InvariantAuditor.heal` repairs what it found by
re-deriving each implicated ride's index footprint from first principles
(:func:`repro.core.reachability.build_ride_entry` via
``XAREngine.reindex_ride``) and purging entries that belong to no live ride.

Invariants swept:

* ``seats_available`` within ``[0, seats_total]`` and one pickup via-point
  per consumed seat;
* ``detour_limit_m`` ≥ 0;
* every ``ride_entries`` record belongs to a live ride and every live ride
  has a record;
* every reachable cluster of every entry appears in ``cluster_index``
  (missing == *lost* entry: the ride is invisible there) and vice versa
  (extra == *ghost* entry: a dead or re-routed ride still discoverable);
* every reachable cluster keeps at least one supporting pass-through
  visit;
* the cluster index's built sorted views list exactly its entries;
* the flat search core (when enabled) strictly mirrors the cluster index
  and the live rides' seat/detour budgets.

The simulator runs the sweep on a cadence (``SimulatorConfig.audit_every_s``)
and the CLI exposes it through ``xar simulate --audit-every``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .snapshot import RideSnapshot, diff_ride, snapshot_ride

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import XAREngine


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant, localized to a ride and/or cluster."""

    kind: str
    detail: str
    ride_id: Optional[int] = None
    cluster_id: Optional[int] = None


@dataclass
class AuditReport:
    """Outcome of one full sweep."""

    violations: List[AuditViolation] = field(default_factory=list)
    rides_checked: int = 0
    entries_checked: int = 0
    clusters_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.kind] = counts.get(violation.kind, 0) + 1
        return counts

    def describe(self) -> str:
        if self.ok:
            return (
                f"audit ok: {self.rides_checked} rides, "
                f"{self.clusters_checked} clusters clean"
            )
        lines = [f"audit found {len(self.violations)} violation(s):"]
        for violation in self.violations[:20]:
            lines.append(f"  [{violation.kind}] {violation.detail}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


class InvariantAuditor:
    """Sweeps one :class:`XAREngine` for structural damage and repairs it."""

    def __init__(self, engine: "XAREngine"):
        self.engine = engine
        self.sweeps = 0
        self.violations_found = 0
        self.heals = 0

    def _engine_lock(self):
        """The engine's state lock, so sweeps never race in-flight ops."""
        return getattr(self.engine, "lock", None) or contextlib.nullcontext()

    # ------------------------------------------------------------------
    # Sweep
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Full non-raising sweep; every violation is collected."""
        with self._engine_lock():
            return self._audit_locked()

    def _audit_locked(self) -> AuditReport:
        engine = self.engine
        report = AuditReport()
        self.sweeps += 1

        try:
            engine.cluster_index.check_consistency()
        except AssertionError as exc:
            report.violations.append(
                AuditViolation(kind="dual-list-divergence", detail=str(exc))
            )

        # The flat search core must be a strict mirror of the cluster index
        # and the live rides' seat/detour budgets.
        if getattr(engine, "flat_index", None) is not None:
            for ride_id, detail in engine.flat_index.divergences(engine):
                report.violations.append(
                    AuditViolation(
                        kind="flat-index-divergence",
                        detail=detail,
                        ride_id=ride_id,
                    )
                )

        # ride_entries <-> rides, entry internals, entry -> cluster_index.
        for ride_id, entry in list(engine.ride_entries.items()):
            report.entries_checked += 1
            if ride_id not in engine.rides:
                report.violations.append(
                    AuditViolation(
                        kind="entry-for-dead-ride",
                        detail=f"index entry for dead ride {ride_id}",
                        ride_id=ride_id,
                    )
                )
                continue
            for cluster_id in entry.unsupported():
                report.violations.append(
                    AuditViolation(
                        kind="unsupported-reachable",
                        detail=(
                            f"ride {ride_id}: cluster {cluster_id} has no "
                            "supporting pass-through visit"
                        ),
                        ride_id=ride_id,
                        cluster_id=cluster_id,
                    )
                )
            for cluster_id in entry.reachable:
                if engine.cluster_index.eta(cluster_id, ride_id) is None:
                    report.violations.append(
                        AuditViolation(
                            kind="lost-index-entry",
                            detail=(
                                f"ride {ride_id}: reachable cluster "
                                f"{cluster_id} missing from the cluster index"
                            ),
                            ride_id=ride_id,
                            cluster_id=cluster_id,
                        )
                    )

        for ride_id, ride in engine.rides.items():
            if ride.retired:
                # Retired rides drain outside the index by design; one that
                # still *has* an entry is the violation.
                if ride_id in engine.ride_entries:
                    report.violations.append(
                        AuditViolation(
                            kind="indexed-retired-ride",
                            detail=f"retired ride {ride_id} still indexed",
                            ride_id=ride_id,
                        )
                    )
                continue
            if ride_id not in engine.ride_entries:
                report.violations.append(
                    AuditViolation(
                        kind="unindexed-ride",
                        detail=f"live ride {ride_id} has no index entry",
                        ride_id=ride_id,
                    )
                )

        # cluster_index -> ride_entries (ghost entries).
        for cluster_id in range(engine.cluster_index.n_clusters):
            report.clusters_checked += 1
            for potential in list(engine.cluster_index.all_rides(cluster_id)):
                entry = engine.ride_entries.get(potential.ride_id)
                if entry is None or cluster_id not in entry.reachable:
                    report.violations.append(
                        AuditViolation(
                            kind="ghost-index-entry",
                            detail=(
                                f"cluster {cluster_id} lists ride "
                                f"{potential.ride_id} which does not reach it"
                            ),
                            ride_id=potential.ride_id,
                            cluster_id=cluster_id,
                        )
                    )

        # Per-ride accounting.
        for ride in engine.rides.values():
            report.rides_checked += 1
            if not (0 <= ride.seats_available <= ride.seats_total):
                report.violations.append(
                    AuditViolation(
                        kind="seats-out-of-range",
                        detail=(
                            f"ride {ride.ride_id}: seats "
                            f"{ride.seats_available}/{ride.seats_total}"
                        ),
                        ride_id=ride.ride_id,
                    )
                )
            consumed = ride.seats_total - ride.seats_available
            pickups = sum(1 for via in ride.via_points if via.label == "pickup")
            if pickups != consumed:
                report.violations.append(
                    AuditViolation(
                        kind="seat-via-mismatch",
                        detail=(
                            f"ride {ride.ride_id}: {pickups} pickup via-points "
                            f"vs {consumed} seats consumed"
                        ),
                        ride_id=ride.ride_id,
                    )
                )
            if ride.detour_limit_m < 0:
                report.violations.append(
                    AuditViolation(
                        kind="negative-detour-budget",
                        detail=f"ride {ride.ride_id}: negative detour budget",
                        ride_id=ride.ride_id,
                    )
                )
            # Per-passenger budgets (high-capacity pooling): every record
            # must point at a live pickup/dropoff via pair and stay within
            # its own declared detour budget.
            for record in ride.passengers.values():
                try:
                    consumed = ride.passenger_consumed_m(record.request_id)
                except Exception as exc:
                    report.violations.append(
                        AuditViolation(
                            kind="passenger-via-mismatch",
                            detail=(
                                f"ride {ride.ride_id}: passenger "
                                f"{record.request_id} record without "
                                f"via-points ({exc})"
                            ),
                            ride_id=ride.ride_id,
                        )
                    )
                    continue
                if (
                    record.max_detour_m is not None
                    and consumed > record.max_detour_m
                ):
                    report.violations.append(
                        AuditViolation(
                            kind="passenger-budget-exceeded",
                            detail=(
                                f"ride {ride.ride_id}: passenger "
                                f"{record.request_id} consumed "
                                f"{consumed:.1f} m over their "
                                f"{record.max_detour_m:.1f} m budget"
                            ),
                            ride_id=ride.ride_id,
                        )
                    )

        self.violations_found += len(report.violations)
        return report

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def heal(self, report: Optional[AuditReport] = None) -> int:
        """Repair index damage found by a sweep; returns repair actions.

        Index-shaped violations (lost/ghost/unsupported entries, missing
        records) are repaired by purging dead footprints and re-indexing the
        implicated rides from their current routes.  Accounting violations
        (seats, budgets) are *reported but not invented away* — there is no
        safe way to conjure a seat back, so they are left for the operator.
        """
        engine = self.engine
        if report is None:
            report = self.audit()
        with self._engine_lock():
            return self._heal_locked(engine, report)

    def _heal_locked(self, engine: "XAREngine", report: AuditReport) -> int:
        actions = 0
        reindex: set = set()
        for violation in report.violations:
            if violation.kind in ("entry-for-dead-ride", "indexed-retired-ride"):
                engine.ride_entries.pop(violation.ride_id, None)
                engine.cluster_index.purge_ride(violation.ride_id)
                if getattr(engine, "flat_index", None) is not None:
                    engine.flat_index.drop_ride(violation.ride_id)
                actions += 1
            elif violation.kind == "ghost-index-entry":
                if violation.ride_id not in engine.rides:
                    engine.cluster_index.purge_ride(violation.ride_id)
                    if getattr(engine, "flat_index", None) is not None:
                        engine.flat_index.drop_ride(violation.ride_id)
                    actions += 1
                else:
                    reindex.add(violation.ride_id)
            elif violation.kind == "flat-index-divergence":
                if violation.ride_id is None:
                    continue
                if violation.ride_id in engine.rides:
                    reindex.add(violation.ride_id)
                elif getattr(engine, "flat_index", None) is not None:
                    engine.flat_index.drop_ride(violation.ride_id)
                    actions += 1
            elif violation.kind in (
                "lost-index-entry",
                "unsupported-reachable",
                "unindexed-ride",
            ):
                if violation.ride_id is not None:
                    reindex.add(violation.ride_id)
        for ride_id in sorted(reindex):
            if ride_id in engine.rides:
                engine.reindex_ride(ride_id)
                actions += 1
        self.heals += actions
        return actions

    # ------------------------------------------------------------------
    # Snapshot comparison (transactional-booking verification)
    # ------------------------------------------------------------------
    def snapshot(self, ride_id: int) -> Optional[RideSnapshot]:
        """Capture one ride's full mutable state for later comparison."""
        return snapshot_ride(self.engine, ride_id)

    def compare(self, snapshot: RideSnapshot) -> List[str]:
        """Differences between live state and a snapshot (empty == identical)."""
        return diff_ride(self.engine, snapshot)

    def stats(self) -> Dict[str, int]:
        return {
            "sweeps": self.sweeps,
            "violations_found": self.violations_found,
            "heals": self.heals,
        }
