"""Differential replay: one op sequence, N engine façades, op-by-op diff.

The harness drives the same seeded operation sequence through every façade
(:class:`~repro.core.engine.XAREngine`, :class:`~repro.service.ShardRouter`
at 1/2/4 shards, :class:`~repro.resilience.ResilientEngine`, and the
brute-force :class:`~repro.verify.oracle.OracleEngine`) and checks after
every operation that:

* **create** — the new ride's schedule fingerprint (route, length,
  departure, seats, detour budget, via-point labels) matches the oracle's
  verbatim;
* **search** — each façade's raw result list obeys the engine's total rank
  order ``(total walk, pickup ETA, ride id)``, the handle-normalized lists
  are *identical* across façades, and every returned match's detour
  estimate is within the ε-bound of the oracle's exhaustive optimum;
* **book** — every façade books the same-ranked match, the resulting
  :class:`~repro.core.booking.BookingRecord` fields and the post-booking
  ride fingerprints (spliced schedule, seat counts, detour budget) match
  exactly, and failures fail uniformly with the same error type;
* **cancel / track** — outcomes agree and the live/completed ride sets and
  their fingerprints stay equal;
* periodically, every underlying :class:`XAREngine` passes the
  :class:`~repro.resilience.audit.InvariantAuditor` sweep (shared with the
  resilience subsystem), so a divergence-free run is also structurally
  sound.

Ride ids are façade-local (sharded deployments allocate ids from per-shard
arithmetic lanes), so cross-façade identity uses *handles*: the creation
order of rides within the op sequence.  Normalization maps each façade's
ride ids back to handles and canonically re-sorts exact rank ties, making
list equality well-defined even when id lanes differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from ..exceptions import (
    BookingError,
    ReshardError,
    WorkerCrashError,
    XARError,
)
from ..geo import GeoPoint
from ..obs import MetricsRegistry
from ..resilience import ResilienceConfig, ResilientEngine
from ..resilience.audit import InvariantAuditor
from ..service import ReshardConfig, ShardRouter
from ..sim.adapters import DelegatingAdapter, XARAdapter
from .oracle import OracleAdapter, OracleEngine

#: Façade names the harness understands (``shardN`` for any N >= 1).
#: ``xar`` runs the flat search core (the default engine); ``legacy`` pins
#: the pre-flat per-object search path, so a run containing both is the
#: old-vs-new search differential.
FACADE_NAMES = (
    "oracle", "xar", "legacy", "shard1", "shard2", "shard4", "resilient",
    "durable", "batch", "reshard",
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
    """One engine façade under test: adapter + handle bookkeeping."""

    def __init__(
        self,
        name: str,
        target: Any,
        engines: Sequence[XAREngine] = (),
        closer: Optional[Callable[[], None]] = None,
        relaxed: bool = False,
    ):
        self.name = name
        self.target = target
        #: Underlying XAR engines for the shared invariant audit (empty for
        #: the oracle, which has no cluster index to damage).
        self.xar_engines = list(engines)
        self._closer = closer
        #: Relaxed façades (the batch matcher) are held to *quality*
        #: guarantees, not schedule equality: creates must fingerprint-match,
        #: invariant audits and the ε-bound hold verbatim (against a shadow
        #: oracle over the façade's own state), but search lists, booking
        #: choices and hence later live state may legitimately differ.
        self.relaxed = relaxed
        #: handle (creation ordinal) -> this façade's ride object.
        self.rides_by_handle: Dict[int, Any] = {}
        #: this façade's ride id -> handle.
        self.handle_of_ride: Dict[int, int] = {}

    def register(self, handle: int, ride: Any) -> None:
        self.rides_by_handle[handle] = ride
        self.handle_of_ride[ride.ride_id] = handle

    def close(self) -> None:
        if self._closer is not None:
            self._closer()


class _DurableTarget(DelegatingAdapter):
    """A WAL-backed single engine that the harness can crash and recover.

    Delegates the :class:`~repro.sim.adapters.EngineAdapter` surface to an
    :class:`XARAdapter` + :class:`DurableAdapter` stack (``.inner``, rebuilt
    by every recovery) rooted in a private directory; only ``book`` is
    overridden.  Two crash shapes are supported:

    * :meth:`crash` — a clean between-ops crash: drop the WAL handle
      without the final fsync (as a dying process would) and rebuild the
      engine by replaying the log;
    * :meth:`arm_mid_book` — the next booking dies at the engine's
      ``book:post-snapshot`` seam, *after* its WAL record is written but
      *before* the splice mutates the ride.  :meth:`book` catches the
      resulting :class:`~repro.exceptions.WorkerCrashError`, recovers, and
      resolves the interrupted booking from the recovered engine — exactly
      the contract the service's shard failover provides.
    """

    def __init__(
        self,
        region: DiscretizedRegion,
        directory: str,
        *,
        fsync_every: int = 16,
        checkpoint_every: int = 20,
    ):
        self.region = region
        self.directory = directory
        self.fsync_every = fsync_every
        self.checkpoint_every = checkpoint_every
        self._digest = region_digest(region)
        self._wal_path = os.path.join(directory, "shard0.wal")
        self._checkpoint_path = os.path.join(directory, "shard0.ckpt")
        #: Called with the recovered engine after every recovery, before
        #: the interrupted op resolves (the façade re-points its handles).
        self.on_recovered: Optional[Callable[[XAREngine], None]] = None
        self.last_recovery = None
        self.recoveries = 0
        self._attach(XAREngine(region))

    def _attach(self, engine: XAREngine) -> None:
        wal = WriteAheadLog.open(
            self._wal_path,
            shard_id=0,
            ride_id_start=1,
            ride_id_step=1,
            region_digest=self._digest,
            fsync_every=self.fsync_every,
        )
        self.inner = DurableAdapter(
            XARAdapter(engine),
            wal,
            checkpoint_path=self._checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            digest=self._digest,
        )
        self.name = f"{self.inner.name}+crashy"

    # -- crash / recovery ------------------------------------------------
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
        if self.on_recovered is not None:
            self.on_recovered(result.engine)
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
            engine = self.engine
            for record in reversed(engine.bookings):
                if record.request_id == request.request_id:
                    return record
            for rollback in reversed(engine.rollbacks):
                if rollback.request_id == request.request_id:
                    raise _exception_by_name(rollback.error)(rollback.reason)
            raise BookingError(
                f"request {request.request_id} vanished during recovery"
            )

    def close(self) -> None:
        try:
            self.engine.fault_hook = None
            self.inner.close()
        except Exception:  # noqa: BLE001 - best effort on teardown
            pass
        shutil.rmtree(self.directory, ignore_errors=True)


def _exception_by_name(name: str):
    """Resolve a rollback's recorded error class back to an exception type."""
    from .. import exceptions as _exceptions

    candidate = getattr(_exceptions, name, BookingError)
    if isinstance(candidate, type) and issubclass(candidate, XARError):
        return candidate
    return BookingError


class DurableFacade(Facade):
    """Facade whose handle maps survive crash-recovery engine swaps.

    Recovery replays the WAL into a *new* engine with new ride objects;
    ride ids are stable across replay (create records pin the allocator),
    so every handle is re-pointed at the recovered object with the same
    id.  Handles whose rides no longer exist (cancelled or completed away
    before the crash) keep their stale object — later ops on them then
    fail with the same errors the reference sees.
    """

    def __init__(self, name: str, target: _DurableTarget):
        super().__init__(
            name, target, engines=[target.engine], closer=target.close
        )
        target.on_recovered = self._on_recovered

    def _on_recovered(self, engine: XAREngine) -> None:
        self.xar_engines = [engine]
        for handle, ride in list(self.rides_by_handle.items()):
            recovered = engine.rides.get(ride.ride_id)
            if recovered is None:
                recovered = engine.completed_rides.get(ride.ride_id)
            if recovered is not None:
                self.rides_by_handle[handle] = recovered


class _ReshardTarget:
    """A reshard-enabled durable :class:`ShardRouter` the harness can split,
    merge, and SIGKILL at any phase of a split, rebuilding from disk.

    Attribute access falls through to the *current* router, so the façade's
    op surface survives every rebuild.  ``reshard(op)`` executes one
    split/merge; when the op carries a ``crash_phase``, a fault hook raises
    from that phase seam and the target simulates full process death —
    every WAL handle is abandoned without its final fsync and a fresh
    router is built from the directory, exactly the recovery a restart
    performs.  The harness then diffs the recovered live state against the
    uninterrupted reference: crash-during-split must land on either the old
    or the new topology with nothing lost, never a mix.
    """

    _PHASES = ("drained", "synced", "carved", "committed", "swapped")

    def __init__(
        self,
        region: DiscretizedRegion,
        directory: str,
        *,
        seed: int = 0,
        n_shards: int = 2,
        max_shards: int = 6,
    ):
        self.region = region
        self.directory = directory
        self.seed = seed
        self.n_shards = n_shards
        self.max_shards = max_shards
        #: Called with the new router after every rebuild (the façade
        #: re-points its handle maps and audit engine list).
        self.on_rebuilt: Optional[Callable[[ShardRouter], None]] = None
        self.reshards = 0
        self.rebuilds = 0
        self.router = self._build()

    def _build(self) -> ShardRouter:
        return ShardRouter(
            self.region,
            self.n_shards,
            fanout="all",
            queue_depth=4096,
            seed=self.seed,
            durability=DurabilityConfig(
                directory=self.directory, fsync_every=8, checkpoint_every=25
            ),
            reshard=ReshardConfig(max_shards=self.max_shards),
        )

    def __getattr__(self, name: str):
        return getattr(self.router, name)

    def kill_and_rebuild(self) -> None:
        """Simulate SIGKILL: drop every WAL handle un-fsynced, restart."""
        self.router.abandon()
        self.router = self._build()
        self.rebuilds += 1
        if self.on_rebuilt is not None:
            self.on_rebuilt(self.router)

    def reshard(self, op: Dict[str, Any]) -> None:
        router = self.router
        phase = op.get("crash_phase")
        hook = None
        if phase is not None:

            def hook(point: str) -> None:
                if point == phase:
                    raise WorkerCrashError(
                        f"injected process death after reshard phase {point}"
                    )

        try:
            if op.get("action") == "merge":
                pairs = router.shard_map.adjacent_pairs()
                if not pairs:
                    return
                dst, src = pairs[op.get("slot_index", 0) % len(pairs)]
                router.merge_shards(dst, src, fault_hook=hook)
            else:
                active = sorted(router.active_slot_ids())
                slot = active[op.get("slot_index", 0) % len(active)]
                router.split_shard(slot, fault_hook=hook)
            self.reshards += 1
        except WorkerCrashError:
            # The injected death: whatever the router managed in process is
            # moot — truth is on disk.  Recover like a restart would.
            self.kill_and_rebuild()
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


class ReshardFacade(Facade):
    """Facade whose handle maps survive splits, merges, and mid-split
    crash rebuilds.

    Every reshard recovers engines from carved checkpoints (and a rebuild
    replaces the whole fleet), so ride *objects* churn while ride ids stay
    stable — after each such event the façade re-points every handle at the
    current owner and refreshes the audit engine list.
    """

    def __init__(self, name: str, target: _ReshardTarget):
        super().__init__(name, target, closer=target.close)
        target.on_rebuilt = lambda _router: self.refresh()
        self.refresh()

    def refresh(self) -> None:
        router = self.target.router
        self.xar_engines = [
            shard.engine for shard in router.shards if shard.active
        ]
        for handle, ride in list(self.rides_by_handle.items()):
            for engine in self.xar_engines:
                recovered = engine.rides.get(ride.ride_id)
                if recovered is None:
                    recovered = engine.completed_rides.get(ride.ride_id)
                if recovered is not None:
                    self.rides_by_handle[handle] = recovered
                    break


def make_facade(
    name: str, region: DiscretizedRegion, seed: int = 0
) -> Facade:
    """Build one façade by name: ``oracle | xar | legacy | shardN |
    resilient | durable``."""
    if name == "oracle":
        engine = OracleEngine(region)
        return Facade(name, OracleAdapter(engine))
    if name == "xar":
        engine = XAREngine(region)
        return Facade(name, XARAdapter(engine), engines=[engine])
    if name == "legacy":
        # The pre-flat per-object search path, kept as a differential
        # reference: result lists must equal the flat core's verbatim.
        engine = XAREngine(region, use_flat_index=False)
        return Facade(name, XARAdapter(engine), engines=[engine])
    if name.startswith("shard"):
        n_shards = int(name[len("shard"):])
        # fanout="all" reproduces the single-engine ordering exactly; a
        # deep queue keeps the single-threaded replay from ever shedding.
        router = ShardRouter(
            region,
            n_shards,
            fanout="all",
            queue_depth=4096,
            seed=seed,
        )
        return Facade(
            name,
            router,
            engines=[shard.engine for shard in router.shards],
            closer=router.close,
        )
    if name == "resilient":
        engine = XAREngine(region)
        config = ResilienceConfig(seed=seed, sleep=lambda _s: None)
        return Facade(
            name,
            ResilientEngine(XARAdapter(engine), config),
            engines=[engine],
        )
    if name == "durable":
        directory = tempfile.mkdtemp(prefix="xar-differential-durable-")
        return DurableFacade(name, _DurableTarget(region, directory))
    if name == "reshard":
        directory = tempfile.mkdtemp(prefix="xar-differential-reshard-")
        return ReshardFacade(
            name, _ReshardTarget(region, directory, seed=seed)
        )
    if name == "batch":
        # window_s=0: the replay is single-threaded, so each search must
        # flush solo or the driver would deadlock waiting on its own window.
        # Multi-request windows are exercised by the batch test suite and
        # the rush-hour benchmark; here the harness checks the quality
        # contract (ε-bound, invariants, no request lost).
        engine = XAREngine(region)
        matcher = BatchMatcher(
            XARAdapter(engine), BatchConfig(window_s=0.0, max_batch=8)
        )
        return Facade(
            name, matcher, engines=[engine], closer=matcher.close,
            relaxed=True,
        )
    raise ValueError(
        f"unknown façade {name!r} (choose from {FACADE_NAMES} or shardN)"
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


def _booking_fingerprint(record: Any) -> Tuple:
    return (
        record.request_id,
        record.pickup_landmark,
        record.dropoff_landmark,
        record.walk_source_m,
        record.walk_destination_m,
        record.eta_pickup_s,
        record.eta_dropoff_s,
        record.detour_estimate_m,
        record.detour_actual_m,
        record.shortest_paths_computed,
    )


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
            epsilon_bound_m
            if epsilon_bound_m is not None
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
        facades = [
            self._facade_factory(name, self.region, self.seed)
            for name in self.engine_names
        ]
        reference = facades[0]
        others = facades[1:]
        self._request_id = 0
        #: Per-relaxed-façade shadow oracles (see :meth:`_shadow_oracle`).
        self._shadows: Dict[str, OracleEngine] = {}
        try:
            for op_index, op in enumerate(ops):
                kind = op.get("op")
                report.n_ops += 1
                report.op_counts[kind] = report.op_counts.get(kind, 0) + 1
                if self._m_ops is not None:
                    self._m_ops.labels(op=str(kind)).inc()
                handler = getattr(self, f"_op_{kind}", None)
                if handler is None:
                    self._diverge(
                        report, op_index, op, "bad-op", "harness",
                        f"unknown op kind {kind!r}",
                    )
                else:
                    handler(report, op_index, op, reference, others)
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

    def _diverge(
        self,
        report: DifferentialReport,
        op_index: int,
        op: Dict[str, Any],
        kind: str,
        facade: str,
        detail: str,
    ) -> None:
        report.divergences.append(
            Divergence(op_index=op_index, op=dict(op), kind=kind,
                       facade=facade, detail=detail)
        )
        if self._m_divergences is not None:
            self._m_divergences.labels(kind=kind).inc()

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    def _op_create(self, report, op_index, op, reference, others) -> None:
        handle = op["handle"]
        source = GeoPoint(*op["src"])
        destination = GeoPoint(*op["dst"])
        outcomes: List[Tuple[Facade, Any, Optional[str]]] = []
        for facade in [reference] + others:
            try:
                ride = facade.target.create(
                    source,
                    destination,
                    op["depart_s"],
                    seats=op.get("seats"),
                    detour_limit_m=op.get("detour_limit_m"),
                    shift_end_s=op.get("shift_end_s"),
                )
                outcomes.append((facade, ride, None))
            except XARError as exc:
                outcomes.append((facade, None, type(exc).__name__))
        _facade, ref_ride, ref_error = outcomes[0]
        ref_print = _ride_fingerprint(ref_ride) if ref_ride is not None else None
        for facade, ride, error in outcomes:
            if error != ref_error:
                self._diverge(
                    report, op_index, op, "create-outcome", facade.name,
                    f"{error or 'ok'} vs reference {ref_error or 'ok'}",
                )
                continue
            if ride is None:
                continue
            facade.register(handle, ride)
            if _ride_fingerprint(ride) != ref_print:
                self._diverge(
                    report, op_index, op, "ride-state", facade.name,
                    f"created ride fingerprint differs for handle {handle}",
                )

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

    def _normalize(
        self,
        report,
        op_index,
        op,
        facade: Facade,
        matches: Sequence[Any],
    ) -> Optional[List[Tuple]]:
        """Map a façade's raw match list to a canonical handle-keyed form.

        Verifies the raw list obeys the engine's strict total rank order
        first; then replaces façade-local ride ids with handles and re-sorts
        so exact (walk, ETA) ties land in one canonical cross-façade order.
        """
        previous = None
        normalized: List[Tuple] = []
        for match in matches:
            key = (match.total_walk_m, match.eta_pickup_s, match.ride_id)
            if previous is not None and key <= previous:
                self._diverge(
                    report, op_index, op, "rank-order", facade.name,
                    f"raw results not strictly rank-ordered at {key}",
                )
                return None
            previous = key
            handle = facade.handle_of_ride.get(match.ride_id)
            if handle is None:
                self._diverge(
                    report, op_index, op, "unknown-ride", facade.name,
                    f"search returned untracked ride id {match.ride_id}",
                )
                return None
            normalized.append(
                (
                    match.walk_source_m,
                    match.walk_destination_m,
                    match.eta_pickup_s,
                    match.eta_dropoff_s,
                    match.pickup_cluster,
                    match.pickup_landmark,
                    match.dropoff_cluster,
                    match.dropoff_landmark,
                    match.detour_estimate_m,
                    handle,
                )
            )
        normalized.sort()
        return normalized

    def _run_search(
        self, report, op_index, op, reference, others
    ) -> Optional[Tuple]:
        """Shared search flow for the search and book ops.

        Returns (request, per-façade raw matches, reference normalized list,
        relaxed façades' raw matches) or None when a divergence was
        recorded.  Relaxed façades search against their *own* (divergent)
        state, so their lists are held only to the per-façade quality checks
        in :meth:`_check_relaxed_matches`, never to cross-façade equality.
        """
        request = self._make_request(op)
        k = op.get("k")
        raw: List[Tuple[Facade, List[Any]]] = []
        errors: List[Tuple[Facade, Optional[str]]] = []
        relaxed_raw: List[Tuple[Facade, List[Any]]] = []
        for facade in [reference] + others:
            if facade.relaxed:
                try:
                    matches = facade.target.search(request, k)
                except XARError:
                    continue  # façade-local refusal; its audits still run
                self._check_relaxed_matches(
                    report, op_index, op, facade, request, matches
                )
                relaxed_raw.append((facade, matches))
                continue
            try:
                raw.append((facade, facade.target.search(request, k)))
                errors.append((facade, None))
            except XARError as exc:
                raw.append((facade, []))
                errors.append((facade, type(exc).__name__))
        ref_search_error = errors[0][1]
        for facade, error in errors:
            if error != ref_search_error:
                self._diverge(
                    report, op_index, op, "search-outcome", facade.name,
                    f"{error or 'ok'} vs reference {ref_search_error or 'ok'}",
                )
                return None
        ref_normalized = self._normalize(report, op_index, op, reference, raw[0][1])
        if ref_normalized is None:
            return None
        for facade, matches in raw[1:]:
            normalized = self._normalize(report, op_index, op, facade, matches)
            if normalized is None:
                return None
            if normalized != ref_normalized:
                self._diverge(
                    report, op_index, op, "search-mismatch", facade.name,
                    f"{len(normalized)} matches vs oracle's "
                    f"{len(ref_normalized)}; first diff at rank "
                    f"{_first_diff(normalized, ref_normalized)}",
                )
                return None
        self._check_bound(report, op_index, op, reference, request, ref_normalized)
        report.searches_checked += 1
        return request, raw, ref_normalized, relaxed_raw

    def _check_bound(
        self, report, op_index, op, reference: Facade, request, normalized
    ) -> None:
        """ε-bound: every returned detour estimate is within ``epsilon_bound_m``
        of the oracle's exhaustive insertion-point optimum for that ride."""
        if not normalized:
            return
        oracle: OracleEngine = reference.target.engine
        optimum = oracle.optimum(request)
        for row in normalized:
            detour, handle = row[8], row[9]
            ride = reference.rides_by_handle.get(handle)
            best = optimum.get(ride.ride_id) if ride is not None else None
            if best is None:
                self._diverge(
                    report, op_index, op, "epsilon-bound", reference.name,
                    f"handle {handle} matched but the exhaustive scan finds "
                    f"no feasible insertion at all",
                )
                continue
            report.bound_checks += 1
            if self._m_bound is not None:
                self._m_bound.labels().inc()
            gap = detour - best.min_detour_m
            if gap > report.max_bound_gap_m:
                report.max_bound_gap_m = gap
            if detour > best.min_detour_m + self.epsilon_bound_m:
                self._diverge(
                    report, op_index, op, "epsilon-bound", reference.name,
                    f"handle {handle}: detour estimate {detour:.1f} m exceeds "
                    f"exhaustive optimum {best.min_detour_m:.1f} m by more "
                    f"than the ε-bound {self.epsilon_bound_m:.1f} m",
                )

    def _shadow_oracle(self, facade: Facade) -> OracleEngine:
        """An oracle view over a relaxed façade's *own* engine state.

        The oracle's exhaustive scan only reads ``rides`` and
        ``ride_entries`` — both built by the same ``build_ride_entry`` the
        real engine uses — so repointing those dicts at the façade's engine
        yields the exact insertion-point optimum for the state that façade's
        search actually ran against, bookings-divergence and all.
        """
        oracle = self._shadows.get(facade.name)
        if oracle is None:
            oracle = OracleEngine(self.region)
            engine = facade.xar_engines[0]
            oracle.rides = engine.rides
            oracle.ride_entries = engine.ride_entries
            self._shadows[facade.name] = oracle
        return oracle

    def _check_relaxed_matches(
        self, report, op_index, op, facade: Facade, request, matches
    ) -> None:
        """Quality gate for a relaxed façade's search answers.

        Every returned match must name a ride the harness created, and its
        detour estimate must sit within the ε-bound of the exhaustive
        optimum *for this façade's state* — rank order and list membership
        are free (the batch matcher reorders assigned-first).
        """
        if not matches:
            return
        optimum = self._shadow_oracle(facade).optimum(request)
        for match in matches:
            if match.ride_id not in facade.handle_of_ride:
                self._diverge(
                    report, op_index, op, "unknown-ride", facade.name,
                    f"search returned untracked ride id {match.ride_id}",
                )
                continue
            best = optimum.get(match.ride_id)
            if best is None:
                self._diverge(
                    report, op_index, op, "epsilon-bound", facade.name,
                    f"ride {match.ride_id} matched but the exhaustive scan "
                    f"finds no feasible insertion at all",
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
                    f"ride {match.ride_id}: detour estimate "
                    f"{match.detour_estimate_m:.1f} m exceeds exhaustive "
                    f"optimum {best.min_detour_m:.1f} m by more than the "
                    f"ε-bound {self.epsilon_bound_m:.1f} m",
                )

    def _op_search(self, report, op_index, op, reference, others) -> None:
        self._run_search(report, op_index, op, reference, others)

    def _op_book(self, report, op_index, op, reference, others) -> None:
        result = self._run_search(report, op_index, op, reference, others)
        if result is None:
            return
        request, raw, ref_normalized, relaxed_raw = result
        rank = op.get("rank", 0)
        # Relaxed façades book like a real client: the ranked option at
        # ``rank`` when it exists, falling through stale matches greedily.
        # No cross-façade comparison — the matcher's ledger (checked in
        # :meth:`_audit`) proves no request was lost.
        for facade, matches in relaxed_raw:
            for match in matches[rank:rank + 3]:
                try:
                    facade.target.book(request, match)
                    break
                except XARError:
                    continue
        if rank >= len(ref_normalized):
            return  # uniform no-match / rank out of range: nothing to book
        target_handle = ref_normalized[rank][9]
        outcomes: List[Tuple[Facade, Any, Optional[str]]] = []
        for facade, matches in raw:
            chosen = None
            for match in matches:
                if facade.handle_of_ride.get(match.ride_id) == target_handle:
                    chosen = match
                    break
            if chosen is None:
                self._diverge(
                    report, op_index, op, "book-target", facade.name,
                    f"handle {target_handle} absent from this façade's matches",
                )
                return
            try:
                outcomes.append((facade, facade.target.book(request, chosen), None))
            except XARError as exc:
                outcomes.append((facade, None, type(exc).__name__))
        _f, ref_record, ref_error = outcomes[0]
        ref_booking = (
            _booking_fingerprint(ref_record) if ref_record is not None else None
        )
        ref_ride_print = _ride_fingerprint(
            outcomes[0][0].rides_by_handle[target_handle]
        )
        for facade, record, error in outcomes:
            if error != ref_error:
                self._diverge(
                    report, op_index, op, "book-outcome", facade.name,
                    f"{error or 'ok'} vs reference {ref_error or 'ok'}",
                )
                continue
            if record is not None and _booking_fingerprint(record) != ref_booking:
                self._diverge(
                    report, op_index, op, "booking-record", facade.name,
                    f"booking record differs for handle {target_handle}",
                )
            post = _ride_fingerprint(facade.rides_by_handle[target_handle])
            if post != ref_ride_print:
                self._diverge(
                    report, op_index, op, "ride-state", facade.name,
                    f"post-booking schedule/seats differ for handle "
                    f"{target_handle}",
                )
        report.bookings_checked += 1

    def _op_cancel(self, report, op_index, op, reference, others) -> None:
        handle = op["handle"]
        if handle not in reference.rides_by_handle:
            return  # handle never created (e.g. its create was shrunk away)
        outcomes: List[Tuple[Facade, Optional[str]]] = []
        for facade in [reference] + others:
            ride = facade.rides_by_handle.get(handle)
            if facade.relaxed:
                # Divergent bookings shift completion times, so a relaxed
                # façade may legitimately reach a different cancel outcome.
                if ride is not None:
                    try:
                        facade.target.cancel(ride)
                    except XARError:
                        pass
                continue
            if ride is None:
                outcomes.append((facade, "missing-handle"))
                continue
            try:
                facade.target.cancel(ride)
                outcomes.append((facade, None))
            except XARError as exc:
                outcomes.append((facade, type(exc).__name__))
        ref_error = outcomes[0][1]
        for facade, error in outcomes:
            if error != ref_error:
                self._diverge(
                    report, op_index, op, "cancel-outcome", facade.name,
                    f"{error or 'ok'} vs reference {ref_error or 'ok'}",
                )

    def _op_cancel_booking(self, report, op_index, op, reference, others) -> None:
        """Cancel one passenger's booking on every façade and diff the
        un-splice: the cancellation record (route delta, budget restored,
        SPs computed) and the post-cancel ride fingerprint must match."""
        handle = op["handle"]
        request_id = op["request_id"]
        if handle not in reference.rides_by_handle:
            return
        outcomes: List[Tuple[Facade, Any, Optional[str]]] = []
        for facade in [reference] + others:
            ride = facade.rides_by_handle.get(handle)
            if facade.relaxed:
                # Divergent bookings mean the request may not be on this
                # façade's ride at all; its audits still verify the ledger.
                if ride is not None:
                    try:
                        facade.target.cancel_booking(request_id, ride.ride_id)
                    except XARError:
                        pass
                continue
            if ride is None:
                outcomes.append((facade, None, "missing-handle"))
                continue
            try:
                record = facade.target.cancel_booking(request_id, ride.ride_id)
                outcomes.append((facade, record, None))
            except XARError as exc:
                outcomes.append((facade, None, type(exc).__name__))
        _f, ref_record, ref_error = outcomes[0]
        ref_print = (
            (
                ref_record.request_id,
                ref_record.route_delta_m,
                ref_record.detour_restored_m,
                ref_record.shortest_paths_computed,
            )
            if ref_record is not None
            else None
        )
        for facade, record, error in outcomes:
            if error != ref_error:
                self._diverge(
                    report, op_index, op, "cancel-booking-outcome", facade.name,
                    f"{error or 'ok'} vs reference {ref_error or 'ok'}",
                )
                continue
            if record is None:
                continue
            this_print = (
                record.request_id,
                record.route_delta_m,
                record.detour_restored_m,
                record.shortest_paths_computed,
            )
            if this_print != ref_print:
                self._diverge(
                    report, op_index, op, "cancellation-record", facade.name,
                    f"cancellation record differs for handle {handle}",
                )
        self._compare_live_state(report, op_index, op, reference, others)

    def _op_crash(self, report, op_index, op, reference, others) -> None:
        """Crash-recover every durable façade, then diff recovered state.

        ``mode="clean"`` kills the process between ops: the WAL handle is
        dropped without a final fsync and the engine is rebuilt by replay;
        the recovered live state must equal the reference's exactly.
        ``mode="mid-book"`` kills it *inside* the next booking (the op dict
        carries the same fields as a book op), after the WAL record lands
        but before the splice — recovery must complete the booking so the
        op's outcome still matches the reference's uninterrupted one.
        """
        durables = [
            facade
            for facade in [reference] + others
            if isinstance(facade.target, _DurableTarget)
        ]
        if not durables:
            return  # no durable façade in this run: crash ops are no-ops
        if op.get("mode", "clean") == "mid-book":
            for facade in durables:
                facade.target.arm_mid_book()
            try:
                self._op_book(report, op_index, op, reference, others)
            finally:
                # A book that never reached the engine (no match / rank out
                # of range) leaves the hook armed; a later op must not trip it.
                for facade in durables:
                    facade.target.disarm()
        else:
            for facade in durables:
                facade.target.crash()
        self._compare_live_state(report, op_index, op, reference, others)

    def _op_reshard(self, report, op_index, op, reference, others) -> None:
        """Reshard every reshard-capable façade, then diff recovered state.

        The op names an action (``split`` | ``merge``), a ``slot_index``
        resolved modulo the façade's current active slots / adjacent pairs,
        and optionally a ``crash_phase`` — one of the split/merge phase
        seams; the façade then dies at that seam (WAL handles dropped
        without the final fsync) and restarts from disk.  Either way the
        façade's live state afterwards must equal the never-resharded
        reference's exactly: a reshard — even one killed halfway — is
        invisible to clients.
        """
        for facade in [reference] + others:
            if isinstance(facade.target, _ReshardTarget):
                facade.target.reshard(op)
                facade.refresh()
        self._compare_live_state(report, op_index, op, reference, others)

    def _op_track(self, report, op_index, op, reference, others) -> None:
        now_s = op["now_s"]
        counts: List[Tuple[Facade, int]] = []
        for facade in [reference] + others:
            count = facade.target.track_all(now_s)
            if not facade.relaxed:
                counts.append((facade, count))
        ref_count = counts[0][1]
        for facade, count in counts[1:]:
            if count != ref_count:
                self._diverge(
                    report, op_index, op, "track-count", facade.name,
                    f"completed {count} rides vs reference {ref_count}",
                )
        self._compare_live_state(report, op_index, op, reference, others)

    # ------------------------------------------------------------------
    # Cross-façade state comparison + shared invariant audit
    # ------------------------------------------------------------------
    def _live_state(self, facade: Facade) -> Dict[int, Tuple]:
        live = {}
        for ride in facade.target.active_rides():
            handle = facade.handle_of_ride.get(ride.ride_id)
            key = handle if handle is not None else ("raw", ride.ride_id)
            live[key] = _ride_fingerprint(ride)
        return live

    def _compare_live_state(
        self, report, op_index, op, reference, others
    ) -> None:
        ref_live = self._live_state(reference)
        for facade in others:
            if facade.relaxed:
                continue  # booking choices diverge, so live state does too
            live = self._live_state(facade)
            if set(live) != set(ref_live):
                only_here = sorted(
                    str(h) for h in set(live) - set(ref_live)
                )
                only_ref = sorted(
                    str(h) for h in set(ref_live) - set(live)
                )
                self._diverge(
                    report, op_index, op, "live-set", facade.name,
                    f"extra handles {only_here} / missing handles {only_ref}",
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
            for engine in facade.xar_engines:
                audit = InvariantAuditor(engine).audit()
                if not audit.ok:
                    kinds = audit.by_kind()
                    self._diverge(
                        report, op_index, op, "invariant", facade.name,
                        f"invariant audit failed: {kinds}",
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
