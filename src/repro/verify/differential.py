"""Differential replay: one op sequence, N engine façades, op-by-op diff.

The harness drives the same seeded operation sequence through every façade
(:class:`~repro.core.engine.XAREngine`, :class:`~repro.service.ShardRouter`
at 1/2/4 shards, :class:`~repro.service.ProcRouter` over process shards,
the WAL-backed and resharding targets, and the brute-force
:class:`~repro.verify.oracle.OracleEngine`) and checks after every
operation that:

* **create** — the new ride's schedule fingerprint (route, length,
  departure, seats, detour budget, via-point labels) matches the oracle's
  verbatim;
* **search** — each façade's raw result list obeys the engine's total rank
  order ``(total walk, pickup ETA, ride id)``, the handle-normalized lists
  are *identical* across façades, and every returned match's detour
  estimate is within the ε-bound of the oracle's exhaustive optimum;
* **book** — every façade books the same-ranked match, the resulting
  :class:`~repro.core.booking.BookingRecord` fields and the live ride
  fingerprints (spliced schedule, seat counts, detour budget) match
  exactly, and failures fail uniformly with the same error type;
* **cancel / cancel_booking / track** — outcomes and records agree and the
  live ride sets and their fingerprints stay equal;
* periodically, every underlying :class:`XAREngine` passes the
  :class:`~repro.resilience.audit.InvariantAuditor` sweep (the one the
  simulator runs; process shards run it in their workers through
  the router's ``audit()``), so a divergence-free run is also structurally
  sound.

Every op but ``search``, ``crash`` and ``reshard`` is one row of
:data:`_STEPS`: a call made on every façade, diffed against the oracle by
error name and then by a fingerprint of its result.

Ride ids are façade-local (sharded deployments allocate ids from per-shard
arithmetic lanes), so cross-façade identity uses *handles*: the creation
order of rides within the op sequence.  A façade keeps only the map between
its handles and its ride ids — ids survive WAL replay and reshard carves —
and reads ride state fresh from its target whenever a check needs it, so a
recovery or a reshard that swaps every ride object under it needs no
bookkeeping.  Normalization maps each façade's ride ids back to handles and
canonically re-sorts exact rank ties, making list equality well-defined
even when id lanes differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import os
import shutil
import tempfile

from ..batch import BatchConfig, BatchMatcher
from ..core import XAREngine
from ..core.request import RideRequest
from ..discretization import DiscretizedRegion, region_digest
from ..durability import (
    DurabilityConfig,
    DurableAdapter,
    WriteAheadLog,
    recover_engine,
)
from ..exceptions import ReshardError, WorkerCrashError, XARError
from ..geo import GeoPoint
from ..obs import MetricsRegistry
from ..resilience.audit import InvariantAuditor
from ..service import ProcRouter, ReshardConfig, ShardRouter, SupervisorConfig
from ..sim.adapters import DelegatingAdapter, XARAdapter
from .oracle import OracleAdapter, OracleEngine

#: Façade names the harness understands (``shardN`` and ``procN`` for any
#: N >= 1).  ``xar`` runs the flat search core (the default engine);
#: ``legacy`` pins the pre-flat per-object search path, so a run containing
#: both is the old-vs-new search differential.
FACADE_NAMES = (
    "oracle", "xar", "legacy", "shard1", "shard2", "shard4", "durable",
    "batch", "reshard", "proc2",
)


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a façade and the reference."""

    op_index: int
    op: Dict[str, Any]
    kind: str
    facade: str
    detail: str

    def describe(self) -> str:
        return (
            f"op[{self.op_index}] {self.op.get('op', '?')}: "
            f"[{self.kind}] {self.facade}: {self.detail}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential replay."""

    engines: List[str]
    n_ops: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    searches_checked: int = 0
    bound_checks: int = 0
    max_bound_gap_m: float = 0.0
    bookings_checked: int = 0
    audits_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines = [
            f"differential replay: {self.n_ops} ops on {', '.join(self.engines)}",
            f"  ops          : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.op_counts.items())),
            f"  searches     : {self.searches_checked} "
            f"({self.bound_checks} ε-bound checks, "
            f"max gap {self.max_bound_gap_m:.1f} m)",
            f"  bookings     : {self.bookings_checked}",
            f"  audits       : {self.audits_run}",
        ]
        if self.ok:
            lines.append("  verdict      : OK — no divergence")
        else:
            lines.append(f"  verdict      : {len(self.divergences)} DIVERGENCE(S)")
            for divergence in self.divergences[:10]:
                lines.append(f"    {divergence.describe()}")
        return "\n".join(lines)


class Facade:
    """One engine façade under test: its target and the handle ↔ ride id
    map.  Ride state is never held here; checks read it from the target."""

    def __init__(
        self,
        name: str,
        target: Any,
        closer: Optional[Callable[[], None]] = None,
        relaxed: bool = False,
    ):
        self.name = name
        self.target = target
        self._closer = closer
        #: Relaxed façades (the batch matcher) are held to *quality*
        #: guarantees, not schedule equality: creates must fingerprint-match,
        #: invariant audits and the ε-bound hold verbatim (against a shadow
        #: oracle over the façade's own state), but search lists, booking
        #: choices and hence later live state may legitimately differ.
        self.relaxed = relaxed
        #: handle (creation ordinal) -> this façade's ride id.
        self.ride_ids: Dict[int, int] = {}
        #: this façade's ride id -> handle.
        self.handle_of_ride: Dict[int, int] = {}

    def register(self, handle: int, ride_id: int) -> None:
        self.ride_ids[handle] = ride_id
        self.handle_of_ride[ride_id] = handle

    @property
    def xar_engines(self) -> List[XAREngine]:
        """The in-process engines behind the target, found afresh (a
        recovery or reshard swaps them): a thread router's active slots, or
        the engine at the bottom of an adapter stack.  Empty for the oracle
        and for process shards, whose engines live in worker processes."""
        node = self.target
        while node is not None:
            if isinstance(node, XAREngine):
                return [node]
            shards = getattr(node, "shards", None)
            if shards is not None:
                return [shard.engine for shard in shards if shard.active]
            node = getattr(node, "engine", None) or getattr(node, "inner", None)
        return []

    def close(self) -> None:
        if self._closer is not None:
            self._closer()


class _DurableTarget(DelegatingAdapter):
    """A WAL-backed single engine that the harness can crash and recover.

    An :class:`XARAdapter` + :class:`DurableAdapter` stack (``.inner``,
    rebuilt by every recovery) in a private directory.  :meth:`crash` drops
    the WAL handle without the final fsync and replays the log;
    :meth:`arm_mid_book` makes the next booking die at the engine's
    ``book:post-snapshot`` seam, after its WAL record and before the
    splice, and :meth:`book` then recovers and resolves the interrupted
    booking — the contract the service's shard failover provides.
    """

    def __init__(self, region: DiscretizedRegion, directory: str):
        self.region = region
        self.directory = directory
        self._digest = region_digest(region)
        self._wal_path = os.path.join(directory, "shard0.wal")
        self._checkpoint_path = os.path.join(directory, "shard0.ckpt")
        self.last_recovery = None
        self.recoveries = 0
        self._attach(XAREngine(region))

    def _attach(self, engine: XAREngine) -> None:
        wal = WriteAheadLog.open(
            self._wal_path, shard_id=0, ride_id_start=1, ride_id_step=1,
            region_digest=self._digest, fsync_every=16,
        )
        self.inner = DurableAdapter(
            XARAdapter(engine), wal, checkpoint_path=self._checkpoint_path,
            checkpoint_every=20, digest=self._digest,
        )
        self.name = f"{self.inner.name}+crashy"

    def crash(self) -> None:
        """Kill the process between ops, then recover from disk."""
        self.engine.fault_hook = None
        self.inner.abandon()
        self.recover()

    def arm_mid_book(self) -> None:
        """Make the next booking crash after its WAL record is durable."""
        engine = self.engine

        def hook(point: str) -> None:
            if point == "book:post-snapshot":
                engine.fault_hook = None
                raise WorkerCrashError(
                    "injected crash between snapshot and splice", mid_op=True
                )

        engine.fault_hook = hook

    def disarm(self) -> None:
        self.engine.fault_hook = None

    def recover(self):
        result = recover_engine(
            self.region, self._wal_path, self._checkpoint_path
        )
        self.last_recovery = result
        self.recoveries += 1
        self._attach(result.engine)
        return result

    def book(self, request, match):
        try:
            return self.inner.book(request, match)
        except WorkerCrashError:
            # The op record is on disk but the abort (if any) is not;
            # recovery replays the booking and lands on whichever outcome
            # the live engine would have reached.
            self.inner.abandon()
            self.recover()
            for record in reversed(self.engine.bookings):
                if record.request_id == request.request_id:
                    return record
            # The replay refused it: the recovered engine is the pre-booking
            # state, so asking again fails as the live engine would have.
            return self.inner.book(request, match)

    def close(self) -> None:
        try:
            self.engine.fault_hook = None
            self.inner.close()
        except Exception:  # noqa: BLE001 - best effort on teardown
            pass
        shutil.rmtree(self.directory, ignore_errors=True)


class _ReshardTarget:
    """A reshard-enabled durable 2-slot :class:`ShardRouter` the harness can
    split, merge, and SIGKILL at any phase of a split, rebuilding from disk.

    Attribute access falls through to the *current* router.  ``reshard``
    runs one split/merge; with a ``crash_phase`` the target dies at that
    seam and restarts from disk.  Either way it must land on the old or the
    new topology with nothing lost, never a mix.
    """

    def __init__(self, region: DiscretizedRegion, directory: str, seed: int):
        self.region = region
        self.directory = directory
        self.seed = seed
        self.rebuilds = 0
        self.router = self._build()

    def _build(self) -> ShardRouter:
        return ShardRouter(
            self.region, 2, fanout="all", queue_depth=4096, seed=self.seed,
            durability=DurabilityConfig(
                directory=self.directory, fsync_every=8, checkpoint_every=25
            ),
            reshard=ReshardConfig(max_shards=6),
        )

    def __getattr__(self, name: str):
        return getattr(self.router, name)

    def reshard(self, op: Dict[str, Any]) -> None:
        router = self.router
        phase = op.get("crash_phase")

        def hook(point: str) -> None:
            if point == phase:
                raise WorkerCrashError(
                    f"injected process death after reshard phase {point}"
                )

        try:
            if op.get("action") == "merge":
                pairs = router.shard_map.adjacent_pairs()
                if pairs:
                    dst, src = pairs[op.get("slot_index", 0) % len(pairs)]
                    router.merge_shards(dst, src, fault_hook=hook)
            else:
                active = sorted(router.active_slot_ids())
                slot = active[op.get("slot_index", 0) % len(active)]
                router.split_shard(slot, fault_hook=hook)
        except WorkerCrashError:
            # The injected death: whatever the router managed in process is
            # moot — truth is on disk.  Recover like a restart would: every
            # WAL handle dropped un-fsynced, a fresh router over the files.
            router.abandon()
            self.router = self._build()
            self.rebuilds += 1
        except ReshardError:
            # Refused (lane budget spent, slot owns one cluster): a no-op,
            # uniformly — the refusal mutates nothing.
            pass

    def close(self) -> None:
        try:
            self.router.close()
        except Exception:  # noqa: BLE001 - best effort on teardown
            pass
        shutil.rmtree(self.directory, ignore_errors=True)


def is_facade_name(name: str) -> bool:
    """Whether :func:`make_facade` builds a façade of this name: one of
    ``FACADE_NAMES``, or ``shardN`` / ``procN`` for a decimal N >= 1."""
    for prefix in ("shard", "proc"):
        if name.startswith(prefix):
            count = name[len(prefix):]
            return count.isdecimal() and int(count) >= 1
    return name in FACADE_NAMES


def make_facade(
    name: str, region: DiscretizedRegion, seed: int = 0
) -> Facade:
    """Build one façade by name: ``oracle | xar | legacy | shardN | procN |
    durable | reshard | batch``."""
    if name == "oracle":
        return Facade(name, OracleAdapter(OracleEngine(region)))
    if name == "xar":
        return Facade(name, XARAdapter(XAREngine(region)))
    if name == "legacy":
        # The pre-flat per-object search path, kept as a differential
        # reference: result lists must equal the flat core's verbatim.
        return Facade(
            name, XARAdapter(XAREngine(region, use_flat_index=False))
        )
    if name.startswith("shard"):
        # fanout="all" reproduces the single-engine ordering exactly; a
        # deep queue keeps the single-threaded replay from ever shedding.
        router = ShardRouter(
            region, int(name[len("shard"):]), fanout="all", queue_depth=4096,
            seed=seed,
        )
        return Facade(name, router, closer=router.close)
    if name.startswith("proc"):
        run_dir = tempfile.mkdtemp(prefix="xar-differential-proc-")
        config = SupervisorConfig(
            n_shards=int(name[len("proc"):]), run_dir=run_dir,
            queue_depth=4096, seed=seed,
        )
        router = ProcRouter(region, config, fanout="all")

        def close() -> None:
            router.close()
            shutil.rmtree(run_dir, ignore_errors=True)

        return Facade(name, router, closer=close)
    if name == "durable":
        directory = tempfile.mkdtemp(prefix="xar-differential-durable-")
        target = _DurableTarget(region, directory)
        return Facade(name, target, closer=target.close)
    if name == "reshard":
        directory = tempfile.mkdtemp(prefix="xar-differential-reshard-")
        target = _ReshardTarget(region, directory, seed=seed)
        return Facade(name, target, closer=target.close)
    if name == "batch":
        # window_s=0: the replay is single-threaded, so each search must
        # flush solo or the driver would deadlock waiting on its own window.
        # Multi-request windows are exercised by the batch test suite and
        # the rush-hour benchmark; here the harness checks the quality
        # contract (ε-bound, invariants, no request lost).
        matcher = BatchMatcher(
            XARAdapter(XAREngine(region)),
            BatchConfig(window_s=0.0, max_batch=8),
        )
        return Facade(name, matcher, closer=matcher.close, relaxed=True)
    raise ValueError(
        f"unknown façade {name!r} (choose from {FACADE_NAMES}, shardN "
        f"or procN)"
    )


def _ride_fingerprint(ride: Any) -> Tuple:
    """Everything schedule-shaped about a ride, minus its façade-local id."""
    return (
        tuple(ride.route),
        ride.departure_s,
        ride.length_m,
        ride.seats_available,
        ride.seats_total,
        ride.detour_limit_m,
        ride.status.value,
        ride.progressed_m,
        tuple((via.node, via.route_index, via.label) for via in ride.via_points),
        getattr(ride, "retired", False),
        tuple(
            sorted(
                (p.request_id, p.max_detour_m, p.baseline_onboard_m)
                for p in getattr(ride, "passengers", {}).values()
            )
        ),
    )


_booking_fingerprint = attrgetter(
    "request_id", "pickup_landmark", "dropoff_landmark", "walk_source_m",
    "walk_destination_m", "eta_pickup_s", "eta_dropoff_s",
    "detour_estimate_m", "detour_actual_m", "shortest_paths_computed",
)
_cancellation_fingerprint = attrgetter(
    "request_id", "route_delta_m", "detour_restored_m",
    "shortest_paths_computed",
)
#: A match minus its façade-local ride id (:meth:`DifferentialHarness.
#: _normalize` appends the handle).  Sorting on this order is what puts
#: exact rank ties in one canonical cross-façade order.
_match_fingerprint = attrgetter(
    "walk_source_m", "walk_destination_m", "eta_pickup_s", "eta_dropoff_s",
    "pickup_cluster", "pickup_landmark", "dropoff_cluster",
    "dropoff_landmark", "detour_estimate_m",
)


class _MissingHandle(XARError):
    """The façade never created the handle's ride (its create diverged)."""


class _Rejected(Exception):
    """A result unfit for comparison: ``(divergence kind, detail)``."""


def _ride_id(facade: Facade, handle: int) -> int:
    try:
        return facade.ride_ids[handle]
    except KeyError:
        raise _MissingHandle(f"handle {handle}") from None


def _normalize(facade: Facade, matches: Optional[Sequence[Any]]) -> List:
    """Map a façade's raw match list to a canonical handle-keyed form.

    Verifies the raw list obeys the engine's strict total rank order
    first; then replaces façade-local ride ids with handles and re-sorts
    so exact (walk, ETA) ties land in one canonical cross-façade order.
    """
    previous = None
    normalized = []
    for match in matches or ():
        key = (match.total_walk_m, match.eta_pickup_s, match.ride_id)
        if previous is not None and key <= previous:
            raise _Rejected(
                "rank-order", f"raw results not strictly rank-ordered at {key}"
            )
        previous = key
        handle = facade.handle_of_ride.get(match.ride_id)
        if handle is None:
            raise _Rejected(
                "unknown-ride",
                f"search returned untracked ride id {match.ride_id}",
            )
        normalized.append(_match_fingerprint(match) + (handle,))
    normalized.sort()
    return normalized


def _create(facade: Facade, op: Dict[str, Any], _arg: Any) -> Any:
    ride = facade.target.create(
        GeoPoint(*op["src"]),
        GeoPoint(*op["dst"]),
        op["depart_s"],
        seats=op.get("seats"),
        detour_limit_m=op.get("detour_limit_m"),
        shift_end_s=op.get("shift_end_s"),
    )
    facade.register(op["handle"], ride.ride_id)
    return ride


def _cancel(facade: Facade, op: Dict[str, Any], _arg: Any) -> None:
    # Every cancel reads only ``ride.ride_id`` of the ride it withdraws.
    ride_id = _ride_id(facade, op["handle"])
    facade.target.cancel(SimpleNamespace(ride_id=ride_id))


def _book(facade: Facade, op: Dict[str, Any], arg: Any) -> Any:
    """Book the reference's chosen handle: ``arg`` is (request, handle,
    each façade's search results by name)."""
    request, handle, matches = arg
    ride_id = _ride_id(facade, handle)
    match = next(m for m in matches[facade.name] if m.ride_id == ride_id)
    return facade.target.book(request, match)


class _Step(NamedTuple):
    """One op as a call per façade plus a fingerprint of its result."""

    #: ``call(facade, op, arg)``; an ``XARError`` is an outcome, by name.
    call: Callable[[Facade, Dict[str, Any], Any], Any]
    #: Divergence kind when error names differ from the reference's.
    outcome: str
    #: Divergence kind when result fingerprints differ ("": not compared).
    record: str = ""
    #: ``fingerprint(facade, result)``; may raise :class:`_Rejected`.
    fingerprint: Callable[[Facade, Any], Any] = lambda _facade, result: result
    #: ``detail(handle, mine, ref)`` of a record divergence.
    detail: Callable[[Any, Any, Any], str] = lambda handle, mine, ref: ""
    #: The op names a ride by ``op["handle"]``: skipped when the reference
    #: never created it (e.g. its create was shrunk away).
    on_ride: bool = False
    #: Diff every live ride against the reference's afterwards.
    live: bool = False
    #: Diff relaxed façades too (a create does not depend on bookings).
    every: bool = False


#: Op name -> its step.  ``book`` is a ``search`` step and then, on the
#: reference's chosen match, the ``book`` step; ``crash`` and ``reshard``
#: are hand-written.
_STEPS: Dict[str, _Step] = {
    "create": _Step(
        _create, "create-outcome", "ride-state",
        lambda _facade, ride: _ride_fingerprint(ride),
        lambda handle, mine, ref:
            f"created ride fingerprint differs for handle {handle}",
        every=True,
    ),
    "search": _Step(
        lambda facade, op, request: facade.target.search(request, op.get("k")),
        "search-outcome", "search-mismatch", _normalize,
        lambda handle, mine, ref:
            f"{len(mine)} matches vs oracle's {len(ref)}; first diff at "
            f"rank {_first_diff(mine, ref)}",
    ),
    "book": _Step(
        _book, "book-outcome", "booking-record",
        lambda _facade, record: _booking_fingerprint(record),
        lambda handle, mine, ref:
            f"booking record differs for handle {handle}",
        live=True,
    ),
    "cancel": _Step(_cancel, "cancel-outcome", on_ride=True),
    "cancel_booking": _Step(
        lambda facade, op, _arg: facade.target.cancel_booking(
            op["request_id"], _ride_id(facade, op["handle"])
        ),
        "cancel-booking-outcome", "cancellation-record",
        lambda _facade, record: _cancellation_fingerprint(record),
        lambda handle, mine, ref:
            f"cancellation record differs for handle {handle}",
        on_ride=True, live=True,
    ),
    "track": _Step(
        lambda facade, op, _arg: facade.target.track_all(op["now_s"]),
        "track-count", "track-count",
        detail=lambda handle, mine, ref:
            f"completed {mine} rides vs reference {ref}",
        live=True,
    ),
}


class DifferentialHarness:
    """Replays an op sequence against every façade and diffs op-by-op."""

    def __init__(
        self,
        region: DiscretizedRegion,
        engines: Sequence[str] = ("xar", "shard2"),
        seed: int = 0,
        audit_every: int = 50,
        epsilon_bound_m: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        facade_factory: Optional[
            Callable[[str, DiscretizedRegion, int], Facade]
        ] = None,
        stop_on_divergence: bool = True,
    ):
        self.region = region
        #: The oracle is always present and always the reference.
        names = list(engines)
        if "oracle" not in names:
            names.insert(0, "oracle")
        self.engine_names = names
        self.seed = seed
        self.audit_every = audit_every
        #: Additive tolerance for the search-vs-optimum detour comparison;
        #: defaults to the engine's own booking slack, 4ε (ε = 4δ).
        self.epsilon_bound_m = (
            epsilon_bound_m if epsilon_bound_m is not None
            else 4.0 * region.config.epsilon_m
        )
        self._facade_factory = facade_factory or make_facade
        self.stop_on_divergence = stop_on_divergence
        self._m_ops = self._m_divergences = self._m_bound = None
        if metrics is not None:
            self._m_ops = metrics.counter(
                "xar_fuzz_ops_total",
                "Differential-harness operations replayed, by op type",
                labels=("op",),
            )
            self._m_divergences = metrics.counter(
                "xar_fuzz_divergences_total",
                "Differential divergences observed, by kind",
                labels=("kind",),
            )
            self._m_bound = metrics.counter(
                "xar_fuzz_bound_checks_total",
                "Search results checked against the oracle's ε detour bound",
            )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, ops: Sequence[Dict[str, Any]]) -> DifferentialReport:
        report = DifferentialReport(engines=list(self.engine_names))
        facades: List[Facade] = []
        self._request_id = 0
        #: Per-relaxed-façade shadow oracles (see :meth:`_shadow_oracle`).
        self._shadows: Dict[str, OracleEngine] = {}
        try:
            for name in self.engine_names:
                facades.append(self._facade_factory(name, self.region, self.seed))
            for op_index, op in enumerate(ops):
                kind = op.get("op")
                report.n_ops += 1
                report.op_counts[kind] = report.op_counts.get(kind, 0) + 1
                if self._m_ops is not None:
                    self._m_ops.labels(op=str(kind)).inc()
                self._replay(report, op_index, op, facades)
                if self.audit_every and (op_index + 1) % self.audit_every == 0:
                    self._audit(report, op_index, op, facades)
                if report.divergences and self.stop_on_divergence:
                    break
            if not (report.divergences and self.stop_on_divergence):
                self._audit(report, len(ops) - 1, {"op": "final-audit"}, facades)
        finally:
            for facade in facades:
                facade.close()
        return report

    def _replay(self, report, op_index, op, facades: List[Facade]) -> None:
        kind = op.get("op")
        if kind in ("search", "book"):
            self._search(report, op_index, op, facades)
        elif kind == "crash":
            self._crash(report, op_index, op, facades)
        elif kind == "reshard":
            self._reshard(report, op_index, op, facades)
        elif kind in _STEPS:
            self._step(report, op_index, op, facades, _STEPS[kind])
        else:
            self._diverge(
                report, op_index, op, "bad-op", "harness",
                f"unknown op kind {kind!r}",
            )

    def _diverge(self, report: DifferentialReport, op_index: int,
                 op: Dict[str, Any], kind: str, facade: str,
                 detail: str) -> None:
        report.divergences.append(
            Divergence(op_index=op_index, op=dict(op), kind=kind,
                       facade=facade, detail=detail)
        )
        if self._m_divergences is not None:
            self._m_divergences.labels(kind=kind).inc()

    # ------------------------------------------------------------------
    # The one apply-and-compare step
    # ------------------------------------------------------------------
    @staticmethod
    def _apply(
        facades: Sequence[Facade], call: Callable[[Facade], Any]
    ) -> List[Tuple[Facade, Any, Optional[str]]]:
        """Run ``call`` on every façade: (façade, result, error name)."""
        outcomes = []
        for facade in facades:
            try:
                outcomes.append((facade, call(facade), None))
            except XARError as exc:
                outcomes.append((facade, None, type(exc).__name__))
        return outcomes

    def _step(
        self, report, op_index, op, facades: List[Facade], step: _Step,
        arg: Any = None, handle: Optional[int] = None,
    ) -> Optional[List[Tuple[Facade, Any, Optional[str]]]]:
        """Apply ``step`` on every façade, then diff each compared façade's
        error name and result fingerprint against the reference's.

        Returns every façade's (façade, result, error name) when all the
        compared ones agree, else None."""
        handle = op.get("handle") if handle is None else handle
        if step.on_ride and handle not in facades[0].ride_ids:
            return None
        outcomes = self._apply(facades, lambda f: step.call(f, op, arg))
        compared = [o for o in outcomes if step.every or not o[0].relaxed]
        ref_error = compared[0][2]
        ref_print = None
        agreed = True
        for index, (facade, result, error) in enumerate(compared):
            try:
                if error != ref_error:
                    raise _Rejected(
                        step.outcome,
                        f"{error or 'ok'} vs reference {ref_error or 'ok'}",
                    )
                if step.record and error is None:
                    mine = step.fingerprint(facade, result)
                    if index == 0:
                        ref_print = mine
                    elif mine != ref_print:
                        raise _Rejected(
                            step.record, step.detail(handle, mine, ref_print)
                        )
            except _Rejected as rejected:
                kind, detail = rejected.args
                self._diverge(report, op_index, op, kind, facade.name, detail)
                agreed = False
                if index == 0:
                    break  # no reference to compare against
        if step.live:
            self._compare_live_state(report, op_index, op, facades)
        return outcomes if agreed else None

    # ------------------------------------------------------------------
    # Search (and the book op built on it)
    # ------------------------------------------------------------------
    def _make_request(self, op: Dict[str, Any]) -> RideRequest:
        self._request_id += 1
        return RideRequest(
            request_id=self._request_id,
            source=GeoPoint(*op["src"]),
            destination=GeoPoint(*op["dst"]),
            window_start_s=op["window"][0],
            window_end_s=op["window"][1],
            walk_threshold_m=op["walk_m"],
            max_detour_m=op.get("max_detour_m"),
        )

    def _search(self, report, op_index, op, facades: List[Facade]) -> None:
        """Search every façade and diff the answers; a book op then books
        the reference's ranked match on every strict façade.

        Relaxed façades search against their *own* (divergent) state, so
        their lists are held only to the ε-bound over that state, never to
        cross-façade equality, and they book like a real client.
        """
        request = self._make_request(op)
        outcomes = self._step(report, op_index, op, facades, _STEPS["search"],
                              arg=request)
        if outcomes is None:
            return
        for facade, matches, _error in outcomes:
            if facade.relaxed or facade is facades[0]:
                self._check_bound(report, op_index, op, facade, request,
                                  matches)
        report.searches_checked += 1
        if op.get("op") == "search":
            return
        matches = {facade.name: found or [] for facade, found, _e in outcomes}
        rank = op.get("rank", 0)
        # A relaxed façade books the ranked option at ``rank`` when it
        # exists, falling through stale matches greedily.  No cross-façade
        # comparison — the matcher's ledger (checked in :meth:`_audit`)
        # proves no request was lost.
        for facade in (facade for facade in facades if facade.relaxed):
            for match in matches[facade.name][rank:rank + 3]:
                try:
                    facade.target.book(request, match)
                    break
                except XARError:
                    continue
        ranked = _normalize(facades[0], matches[facades[0].name])
        if rank >= len(ranked):
            return  # uniform no-match / rank out of range: nothing to book
        handle = ranked[rank][-1]
        strict = [facade for facade in facades if not facade.relaxed]
        self._step(report, op_index, op, strict, _STEPS["book"],
                   arg=(request, handle, matches), handle=handle)
        report.bookings_checked += 1

    # ------------------------------------------------------------------
    # The ε-bound, for the reference and for relaxed façades alike
    # ------------------------------------------------------------------
    def _shadow_oracle(self, facade: Facade) -> OracleEngine:
        """An oracle over a relaxed façade's *own* engine state: its
        exhaustive scan reads only ``rides`` and ``ride_entries``, so
        repointing those at the façade's engine yields the exact optimum for
        the state that façade's search ran against."""
        oracle = self._shadows.get(facade.name)
        if oracle is None:
            oracle = OracleEngine(self.region)
            engine = facade.xar_engines[0]
            oracle.rides = engine.rides
            oracle.ride_entries = engine.ride_entries
            self._shadows[facade.name] = oracle
        return oracle

    def _check_bound(
        self, report, op_index, op, facade: Facade, request, matches
    ) -> None:
        """ε-bound: every returned detour estimate is within
        ``epsilon_bound_m`` of the exhaustive insertion-point optimum for
        that ride — the oracle's own state for the reference, a shadow
        oracle over the façade's own state for a relaxed façade (whose rank
        order and list membership are free: the batch matcher reorders
        assigned-first)."""
        if not matches:
            return
        oracle = (
            self._shadow_oracle(facade) if facade.relaxed
            else facade.target.engine
        )
        optimum = oracle.optimum(request)
        for match in matches:
            handle = facade.handle_of_ride.get(match.ride_id)
            if handle is None:
                self._diverge(
                    report, op_index, op, "unknown-ride", facade.name,
                    f"search returned untracked ride id {match.ride_id}",
                )
                continue
            best = optimum.get(match.ride_id)
            if best is None:
                self._diverge(
                    report, op_index, op, "epsilon-bound", facade.name,
                    f"handle {handle} matched but the exhaustive scan finds "
                    f"no feasible insertion at all",
                )
                continue
            report.bound_checks += 1
            if self._m_bound is not None:
                self._m_bound.labels().inc()
            gap = match.detour_estimate_m - best.min_detour_m
            if gap > report.max_bound_gap_m:
                report.max_bound_gap_m = gap
            if gap > self.epsilon_bound_m:
                self._diverge(
                    report, op_index, op, "epsilon-bound", facade.name,
                    f"handle {handle}: detour estimate "
                    f"{match.detour_estimate_m:.1f} m exceeds exhaustive "
                    f"optimum {best.min_detour_m:.1f} m by more than the "
                    f"ε-bound {self.epsilon_bound_m:.1f} m",
                )

    # ------------------------------------------------------------------
    # Fuzz-only ops: crash recovery and resharding
    # ------------------------------------------------------------------
    def _crash(self, report, op_index, op, facades) -> None:
        """Crash-recover every durable façade, then diff recovered state.

        ``mode="clean"`` kills it between ops; ``mode="mid-book"`` inside
        the op's booking (the op carries a book op's fields), whose outcome
        must still match the reference's uninterrupted one.
        """
        durables = [facade.target for facade in facades
                    if isinstance(facade.target, _DurableTarget)]
        if not durables:
            return  # no durable façade in this run: crash ops are no-ops
        if op.get("mode", "clean") == "mid-book":
            for target in durables:
                target.arm_mid_book()
            try:
                self._search(report, op_index, op, facades)
            finally:
                # A book that never reached the engine (no match / rank out
                # of range) leaves the hook armed; a later op must not trip it.
                for target in durables:
                    target.disarm()
        else:
            for target in durables:
                target.crash()
        self._compare_live_state(report, op_index, op, facades)

    def _reshard(self, report, op_index, op, facades) -> None:
        """Reshard every reshard-capable façade (see :class:`_ReshardTarget`),
        then diff its live state against the never-resharded reference's: a
        reshard, even one killed halfway, is invisible to clients."""
        for facade in facades:
            if isinstance(facade.target, _ReshardTarget):
                facade.target.reshard(op)
        self._compare_live_state(report, op_index, op, facades)

    # ------------------------------------------------------------------
    # Cross-façade state comparison + shared invariant audit
    # ------------------------------------------------------------------
    def _live_state(self, facade: Facade) -> Dict[Any, Tuple]:
        live = {}
        for ride in facade.target.active_rides():
            handle = facade.handle_of_ride.get(ride.ride_id)
            key = handle if handle is not None else ("raw", ride.ride_id)
            live[key] = _ride_fingerprint(ride)
        return live

    def _compare_live_state(self, report, op_index, op, facades) -> None:
        ref_live = self._live_state(facades[0])
        for facade in facades[1:]:
            if facade.relaxed:
                continue  # booking choices diverge, so live state does too
            live = self._live_state(facade)
            if live.keys() != ref_live.keys():
                extra = sorted(map(str, live.keys() - ref_live.keys()))
                missing = sorted(map(str, ref_live.keys() - live.keys()))
                self._diverge(
                    report, op_index, op, "live-set", facade.name,
                    f"extra handles {extra} / missing handles {missing}",
                )
                continue
            for handle, fingerprint in live.items():
                if fingerprint != ref_live[handle]:
                    self._diverge(
                        report, op_index, op, "ride-state", facade.name,
                        f"live ride state differs for handle {handle}",
                    )

    def _audit(self, report, op_index, op, facades: Sequence[Facade]) -> None:
        report.audits_run += 1
        for facade in facades:
            engines = facade.xar_engines
            for engine in engines:
                audit = InvariantAuditor(engine).audit()
                if not audit.ok:
                    self._diverge(
                        report, op_index, op, "invariant", facade.name,
                        f"invariant audit failed: {audit.by_kind()}",
                    )
            # A façade whose engines live in worker processes runs the
            # same auditor there, through its router.
            remote_audit = getattr(facade.target, "audit", None)
            if not engines and callable(remote_audit):
                result = remote_audit()
                if result["violations"]:
                    self._diverge(
                        report, op_index, op, "invariant", facade.name,
                        f"in-worker invariant audit failed: {result}",
                    )
            # No-request-lost accounting for façades that keep a ledger
            # (the batch matcher): every submitted search must land in
            # exactly one terminal outcome.
            ledger_fn = getattr(facade.target, "ledger", None)
            if callable(ledger_fn):
                ledger = ledger_fn()
                accounted = sum(
                    ledger.get(key, 0)
                    for key in ("assigned", "fallback", "unmatched", "failed")
                )
                if accounted != ledger.get("submitted", 0):
                    self._diverge(
                        report, op_index, op, "request-lost", facade.name,
                        f"ledger out of balance: {ledger}",
                    )


def _first_diff(a: List[Tuple], b: List[Tuple]) -> int:
    for index, (row_a, row_b) in enumerate(zip(a, b)):
        if row_a != row_b:
            return index
    return min(len(a), len(b))
