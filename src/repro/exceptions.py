"""Exception hierarchy for the XAR reproduction.

Every error raised by this library derives from :class:`XARError` so callers
can catch library failures with a single except clause while letting
programming errors (TypeError, etc.) propagate.
"""

from __future__ import annotations


class XARError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(XARError):
    """A system parameter is missing, inconsistent, or out of range."""


class RoadNetworkError(XARError):
    """The road network is malformed or a routing query cannot be served."""


class NoPathError(RoadNetworkError):
    """No path exists between the requested endpoints."""

    def __init__(self, source: int, target: int):
        super().__init__(f"no path from node {source} to node {target}")
        self.source = source
        self.target = target


class DiscretizationError(XARError):
    """Region discretization failed (e.g. no landmarks, bad parameters)."""


class UncoveredLocationError(DiscretizationError):
    """A location maps to no landmark and no walkable cluster.

    The paper's semantics: such a request "will not be served" (Section IV).
    """


class RideError(XARError):
    """A ride operation (create / book / track) is invalid."""


class UnknownRideError(RideError):
    """A ride id does not exist in the engine."""

    def __init__(self, ride_id: int):
        super().__init__(f"unknown ride id {ride_id}")
        self.ride_id = ride_id


class BookingError(RideError):
    """A booking cannot be completed (no seats, detour exhausted, ...)."""


class RequestError(XARError):
    """A ride request is malformed (bad window, negative thresholds, ...)."""


class ResilienceError(XARError):
    """Base class for the serving stack's fault-handling failures."""


class DeadlineExceededError(ResilienceError):
    """An operation ran past its per-operation deadline."""

    def __init__(self, operation: str, elapsed_s: float, deadline_s: float):
        super().__init__(
            f"{operation} took {elapsed_s * 1000:.1f} ms "
            f"(deadline {deadline_s * 1000:.1f} ms)"
        )
        self.operation = operation
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class PlannerError(XARError):
    """The multi-modal trip planner cannot produce a plan."""


class ServiceError(XARError):
    """Base class for the sharded serving layer's own failures."""


class ShardOverloadError(ServiceError):
    """A shard's admission budget is full; the operation was shed.

    Admission control, not a crash: the caller may retry later or count the
    response against the shed-rate SLO.
    """

    def __init__(self, shard_id: int, operation: str):
        super().__init__(
            f"shard {shard_id} queue full: {operation} shed by admission control"
        )
        self.shard_id = shard_id
        self.operation = operation


class ServiceClosedError(ServiceError):
    """An operation was submitted to a service that has been shut down."""


class ReshardError(ServiceError):
    """An elastic-resharding action (split / merge) cannot proceed.

    Raised for precondition failures — resharding disabled, the slot is
    inactive, too few clusters to carve, the ride-id lane budget is
    exhausted — and as the wrapper for failures inside the migration
    itself (the original exception rides along as ``__cause__``).  A
    pre-commit failure leaves the old topology live; a post-commit failure
    rolls forward to the new one — either way the routing table the caller
    sees afterwards matches what a process restart would recover.
    """


class ShardQuarantinedError(ShardOverloadError):
    """A shard blew through its restart budget and is circuit-broken.

    Deliberately a subclass of :class:`ShardOverloadError`: every caller
    that already knows how to serve around a shedding shard — the router's
    partial-search degradation, the load generator's shed accounting, the
    gateway's 503 mapping — handles a quarantined shard the same way,
    without new code.  The supervisor lifts the quarantine after a cooldown
    by allowing a single probe restart.
    """

    def __init__(self, shard_id: int, operation: str):
        ServiceError.__init__(
            self,
            f"shard {shard_id} is quarantined (repeated crashes): "
            f"{operation} refused until the cooldown expires",
        )
        self.shard_id = shard_id
        self.operation = operation


class RpcError(ServiceError):
    """Base class for the process-shard RPC layer's own failures."""


class RpcProtocolError(RpcError):
    """A peer sent a structurally invalid frame (bad CRC, bad JSON, wrong
    id).  The connection cannot be trusted afterwards and is torn down."""


class RpcTransportError(RpcError):
    """The RPC connection died mid-call (EOF, reset, timeout).

    ``request_sent`` distinguishes a call that may have reached the shard
    (the request hit the socket before the failure — the op may be in the
    shard's WAL, so only idempotent calls may retry) from one that never
    left this process (always safe to retry).
    """

    def __init__(self, message: str, request_sent: bool = False):
        super().__init__(message)
        self.request_sent = request_sent


class DurabilityError(XARError):
    """Base class for write-ahead-log / checkpoint / recovery failures."""


class WALCorruptionError(DurabilityError):
    """A WAL frame is structurally invalid *before* the torn tail.

    Torn tails (an incomplete or CRC-failing final frame) are expected after
    a crash and are truncated silently; corruption in the middle of the log
    means the file was damaged and recovery cannot trust anything after it.
    """


class CheckpointError(DurabilityError):
    """A checkpoint file cannot be used (bad format, version, or digest).

    Raised in particular when the checkpoint's region digest does not match
    the discretization build it is being restored against: replaying ops
    over a different cluster geometry would silently diverge, so a stale
    checkpoint is rejected outright.
    """


class RecoveryError(DurabilityError):
    """Crash recovery cannot proceed (e.g. WAL written for another region)."""


class ScenarioError(XARError):
    """A scenario spec is malformed or references unknown components."""


class WorkerCrashError(Exception):
    """An injected (or real) worker-process death.

    Deliberately **not** an :class:`XARError`: a crash must rip through every
    layer that swallows library errors — the engine's transactional ``book``
    rollback, the replay's and the load generator's per-op handlers —
    exactly like a process death would.  Only the service's failover
    supervisor is allowed to handle it.

    ``mid_op`` distinguishes a crash that interrupted an executing operation
    (which may already be in the WAL and must NOT be retried — recovery
    replays it) from a crash detected at submission time (the operation never
    started and is safe to re-route to the recovered worker).
    """

    def __init__(self, message: str, mid_op: bool = False):
        super().__init__(message)
        self.mid_op = mid_op
