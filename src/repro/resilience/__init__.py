"""Invariant auditing and transactional ride state for the XAR engine.

Production traffic breaks in ways the paper's clean replay never exercises:
drivers cancel mid-ride, GPS tracking drops out, bookings race seat
exhaustion, and index entries get lost.  This package holds what keeps the
engine's state sound through those faults:

* :mod:`~repro.resilience.snapshot` — ride-state snapshots powering
  transactional booking (a failed ``book()`` is a byte-identical no-op);
* :class:`InvariantAuditor` — a non-raising invariant sweep with self-healing
  re-indexing, run on a cadence by the simulator and exposed via the CLI.

Fault *injection* lives with the simulator (:mod:`repro.sim.faults`): a fault
is a simulation input, not something the engine retries away.  The service's
own failure model (supervisor restart and quarantine, idempotent RPC retry,
gateway deadlines, partial searches) lives in :mod:`repro.service`.
"""

from .audit import AuditReport, AuditViolation, InvariantAuditor
from .snapshot import RideSnapshot, diff_ride, restore_ride, snapshot_ride

__all__ = [
    "AuditReport",
    "AuditViolation",
    "InvariantAuditor",
    "RideSnapshot",
    "diff_ride",
    "restore_ride",
    "snapshot_ride",
]
