"""One shard stack, built one way: engine → WAL → worker.

Every place a shard comes to life goes through :class:`ShardStack` — the
thread transport's initial build, its in-place failover and reshard
rebuilds, the shard subprocess's boot — so "what a shard is" has exactly
one definition: an :class:`~repro.core.XAREngine` on the slot's ride-id
lane, **recovered** from checkpoint + WAL when the slot's log already
exists (restart *is* crash recovery; there is no separate cold path);
``XARAdapter``, then the WAL decorator when the shard is durable; and a
:class:`~repro.service.shard.ShardWorker` in front, which runs every op on
the thread that asked for it.

A :class:`ShardSpec` says *which* shard (slot, lane, files), a
:class:`StackConfig` *how* every shard of the service is built.  The stack
also carries the operation bodies that are the same wherever the shard runs
(audit sweep, stats snapshot, lock-protected ride lookup, …) behind one
:meth:`ShardStack.run`: the thread transport adds failover around it, the
subprocess adds RPC decoding.
:func:`write_shard_files` is the reshard machine's child-file writer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import XAREngine
from ..core.booking import BookingRecord
from ..core.request import RideRequest
from ..core.search import MatchOption
from ..discretization import DiscretizedRegion
from ..durability import (
    DurableAdapter,
    RecoveryResult,
    WriteAheadLog,
    recover_engine,
    write_checkpoint_state,
)
from ..exceptions import UnknownRideError, WorkerCrashError
from ..obs import MetricsRegistry
from ..resilience import InvariantAuditor
from ..sim.adapters import XARAdapter
from .ops import Op
from .shard import ShardWorker
from .sharding import derive_seed


class Rerouted(Exception):
    """Routing moved this operation's target before it was applied.

    Raised at the transport boundary (never inside the job — there it
    *returns* a sentinel, because an exception would be miscounted as an op
    failure); the router core catches it, re-resolves the slot under the
    new routing table and resubmits.  The op has not touched any engine.
    """


#: What a guarded job returns when its guard fails.
_REROUTED = object()


@dataclass(frozen=True)
class ShardSpec:
    """Which shard: its slot, ride-id lane and (when durable) its files."""

    slot: int
    #: Allocator lane: ids ``ride_id_start + k * ride_id_step``.
    ride_id_start: int
    ride_id_step: int
    #: Absolute paths; ``None`` for a non-durable (in-memory) shard.
    wal_path: Optional[str] = None
    ckpt_path: Optional[str] = None


@dataclass(frozen=True)
class StackConfig:
    """How every shard stack of one service is built."""

    queue_depth: int = 128
    fsync_every: int = 64
    checkpoint_every: int = 0
    optimize_insertion: bool = False
    seed: int = 0


def make_engine(region: DiscretizedRegion, spec: ShardSpec,
                config: StackConfig,
                metrics: Optional[MetricsRegistry] = None) -> XAREngine:
    """The empty engine a shard starts from (and recovery replays into)."""
    return XAREngine(
        region,
        optimize_insertion=config.optimize_insertion,
        ride_id_start=spec.ride_id_start,
        ride_id_step=spec.ride_id_step,
        metrics=metrics,
        metrics_labels={"shard": str(spec.slot)},
    )


def recovery_summary(result: RecoveryResult) -> Dict[str, Any]:
    """What a recovery did (replayed / skipped / failed ops, torn tail,
    watermarks), as plain data — the one shape both transports report (it
    crosses a process boundary in the spawn handshake)."""
    return {
        key: value for key, value in vars(result).items() if key != "engine"
    }


def _open_wal(spec: ShardSpec, digest: str, **options: Any) -> WriteAheadLog:
    """Open (or create, header first) the spec's WAL on the spec's lane."""
    return WriteAheadLog.open(
        spec.wal_path,
        shard_id=spec.slot,
        ride_id_start=spec.ride_id_start,
        ride_id_step=spec.ride_id_step,
        region_digest=digest,
        **options,
    )


def write_shard_files(spec: ShardSpec, state: Dict[str, Any],
                      digest: str) -> None:
    """Write the files a carved shard boots from: a checkpoint holding
    ``state`` and a header-only WAL on the spec's lane."""
    write_checkpoint_state(
        spec.ckpt_path, state, region_digest=digest, shard_id=spec.slot,
        wal_seq=-1,
    )
    _open_wal(spec, digest).close()


class ShardStack:
    """One shard's engine + adapter stack + worker, and its local ops.

    Attributes are rebound in place by :meth:`adopt` (failover, reshard), so
    jobs and callers late-bind through the stack object and always reach
    the *current* engine.  A slot merged away stays in its transport's slot
    table (slot ids are append-only so manifests, metric labels and ride
    homes stay stable) as an ``active=False`` tombstone: engine and adapter
    dropped, the retired worker kept so a straggler that resolved the slot
    before the merge is bounced instead of crashing on ``None``.
    """

    def __init__(
        self,
        region: DiscretizedRegion,
        spec: ShardSpec,
        config: StackConfig,
        *,
        digest: str = "",
        metrics: Optional[MetricsRegistry] = None,
        engine_factory: Optional[Callable[[ShardSpec], XAREngine]] = None,
    ):
        self.spec = spec
        self.config = config
        self.metrics = metrics
        self.active = True
        #: Summary of the recovery this stack booted through, if any.
        self.recovery: Optional[Dict[str, Any]] = None
        factory = (
            (lambda: engine_factory(spec)) if engine_factory is not None
            else (lambda: make_engine(region, spec, config, metrics))
        )
        if spec.wal_path is not None and os.path.exists(spec.wal_path):
            result = recover_engine(
                region, spec.wal_path, spec.ckpt_path,
                engine_factory=factory, metrics=metrics,
            )
            self.recovery = recovery_summary(result)
            self.engine = result.engine
        else:
            self.engine = factory()
        labels = {"shard": str(spec.slot)}
        self.durable: Optional[DurableAdapter] = None
        adapter: Any = XARAdapter(self.engine)
        if spec.wal_path is not None:
            adapter = self.durable = DurableAdapter(
                adapter,
                _open_wal(spec, digest, fsync_every=config.fsync_every,
                          metrics=metrics, metrics_labels=labels),
                checkpoint_path=spec.ckpt_path,
                checkpoint_every=config.checkpoint_every,
                shard_id=spec.slot,
                digest=digest,
                metrics=metrics,
            )
        self.adapter = adapter
        self.worker = self._new_worker()

    @classmethod
    def tombstone(cls, slot: int) -> "ShardStack":
        """The stackless placeholder of a slot merged away before this
        process started (no routing table can name it)."""
        stack = cls.__new__(cls)
        stack.spec = ShardSpec(slot, 0, 0)
        stack.active = False
        stack.engine = stack.adapter = stack.durable = None
        stack.worker = stack.recovery = None
        return stack

    def _new_worker(self) -> ShardWorker:
        return ShardWorker(
            self.spec.slot,
            self.adapter,
            queue_depth=self.config.queue_depth,
            seed=derive_seed(self.config.seed, self.spec.slot),
            metrics=self.metrics,
        )

    @property
    def shard_id(self) -> int:
        return self.spec.slot

    # ------------------------------------------------------------------
    # Hand-over (failover, reshard)
    # ------------------------------------------------------------------
    def release_wal(self, *, sync: bool) -> None:
        """Let go of the WAL handle: with the final fsync barrier (clean
        close, superseded generation) or without it (process death)."""
        if self.durable is not None and not self.durable.wal.closed:
            if sync:
                self.durable.close()
            else:
                self.durable.abandon()

    def adopt(self, fresh: Optional["ShardStack"]) -> None:
        """Continue as ``fresh`` (or, with ``None``, as the same stack behind
        a new worker).  Engine and adapter are published before the worker:
        jobs late-bind through this object, so one the new worker admits
        finds the new engine."""
        if fresh is not None:
            self.spec, self.recovery = fresh.spec, fresh.recovery
            self.engine, self.adapter = fresh.engine, fresh.adapter
            self.durable = fresh.durable
            self.worker = fresh.worker
        else:
            self.engine.fault_hook = None
            self.worker = self._new_worker()

    def entomb(self) -> None:
        """Become the tombstone of a merged-away slot."""
        self.active = False
        self.release_wal(sync=True)
        self.engine = self.adapter = self.durable = None

    # ------------------------------------------------------------------
    # Local operations (no routing, no failover: the transports add those)
    # ------------------------------------------------------------------
    def run(self, op: Op, args: Sequence[Any],
            guard: Optional[Callable[[], bool]] = None) -> Any:
        """The local body of a table op (:mod:`~repro.service.ops`): an
        adapter job calls the op's adapter method through the worker, any
        other op is this stack's method of the op's name (a routed one
        takes the guard)."""
        if op.adapter_job:
            return self.mutate(
                op.name,
                lambda adapter: getattr(adapter, op.method)(*args), guard)
        method = getattr(self, op.name)
        return method(*args, guard) if op.routed else method(*args)

    def mutate(self, operation: str, apply: Callable[[Any], Any],
               guard: Optional[Callable[[], bool]] = None) -> Any:
        """Run one mutation through the worker against the current adapter.

        ``guard`` is the routing re-check: evaluated in the turn right
        before the op would apply; when it fails the job touches nothing
        and the caller gets :class:`Rerouted`.
        """
        def job() -> Any:
            if guard is not None and not guard():
                return _REROUTED
            return apply(self.adapter)

        result = self.worker.call(operation, job)
        if result is _REROUTED:
            raise Rerouted()
        return result

    def search(self, request: RideRequest,
               k: Optional[int]) -> List[MatchOption]:
        """The read path: runs in the caller's thread, in its turn, under
        the engine's own lock."""
        return self.worker.execute_inline(
            "search", lambda: self.adapter.search(request, k)
        )

    def find_ride(self, ride_id: int,
                  guard: Optional[Callable[[], bool]] = None) -> Any:
        """A ride (live or completed), read under the engine's lock.

        Without the lock a concurrent cancel or completion sweep on another
        thread could be observed mid-removal (popped from ``rides``
        but not yet in ``completed_rides``), spuriously raising
        ``UnknownRideError`` for a ride that exists.  The guard is checked
        under the lock too: a reshard swap between resolve and read sends
        the lookup to the ride's new slot instead of reporting a false miss.
        """
        engine = self.engine
        with engine.lock:
            if guard is not None and not guard():
                raise Rerouted()
            ride = engine.rides.get(ride_id) or engine.completed_rides.get(
                ride_id
            )
        if ride is None:
            raise UnknownRideError(ride_id)
        return ride

    def admin(self, fn: Callable[[], Any], operation: str = "admin") -> Any:
        """Run a read of this stack through its worker (serialised with the
        shard's mutations; ``fn`` must late-bind through ``self``)."""
        return self.worker.call(operation, fn)

    def active_rides(self) -> List[Any]:
        return self.admin(lambda: self.adapter.active_rides())

    def bookings(self) -> List[BookingRecord]:
        return self.admin(lambda: list(self.engine.bookings))

    def index_stats(self) -> Dict[str, int]:
        return self.admin(lambda: self.engine.index_stats())

    def rollback_count(self) -> int:
        return len(self.engine.rollbacks)

    def audit(self, heal: bool) -> Tuple[int, int]:
        """Invariant sweep in the shard's turn: ``(violations, healed)``; with
        ``heal`` index damage is repaired and a second sweep verifies."""
        def sweep() -> Tuple[int, int]:
            auditor = InvariantAuditor(self.engine)
            report = auditor.audit()
            actions = 0
            if heal and not report.ok:
                actions = auditor.heal(report)
                report = auditor.audit()
            return len(report.violations), actions

        return self.admin(sweep, "audit")

    def stats(self) -> Dict[str, Any]:
        """Race-free counters: worker stats copied under its stats lock,
        engine state read under the engine's lock."""
        snapshot = self.worker.stats_snapshot()
        snapshot["depth"] = self.worker.in_flight
        with self.engine.lock:
            snapshot["rides"] = self.engine.n_active_rides
            snapshot["bookings"] = self.engine.n_bookings
        return snapshot

    def arm_mid_book_crash(self) -> None:
        """Chaos: kill the *next booking* between its transactional snapshot
        and the route splice — the op is in the WAL but never applied, the
        exact window recovery must close."""
        engine = self.engine

        def hook(point: str) -> None:
            if point == "book:post-snapshot":
                engine.fault_hook = None
                raise WorkerCrashError(
                    f"injected crash in shard {self.spec.slot} at {point}"
                )

        engine.fault_hook = hook
