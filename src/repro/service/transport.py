"""Shard transports: how the router core reaches a slot's shard stack.

A transport owns the slot table of live shards and answers the table ops
(:mod:`~repro.service.ops`) per slot; it knows nothing about routing.  :class:`ThreadTransport` keeps
every slot as a :class:`~repro.service.stack.ShardStack` in this process,
runs every op on its caller's thread, and recovers a dead worker **in
place** from its WAL, from the caller that trips over it.  An op that finds
its worker dead or retired before it started bounces to its own caller,
which fails over, then re-resolves or retries once; no op is ever held for
a successor.  :class:`~repro.service.proc.supervisor.ShardSupervisor` runs
the same stack in a supervised subprocess per slot, reached over a UNIX
socket, and respawns dead processes from its monitor.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..core import XAREngine
from ..discretization import DiscretizedRegion
from ..durability import engine_state
from ..exceptions import (
    ConfigurationError,
    RecoveryError,
    ServiceClosedError,
    ShardOverloadError,
    WorkerCrashError,
    XARError,
)
from ..obs import MetricsRegistry
from .ops import OPS
from .shard import ENGINE_TURN, serve_pass
from .stack import Rerouted, ShardSpec, ShardStack, StackConfig

#: The core's routing re-check ("does routing still point at this slot?").
Guard = Optional[Callable[[], bool]]


def _raise(exc: BaseException) -> Any:
    raise exc


class ShardTransport(Protocol):
    """What the router core and the reshard machine need from a fleet.

    *Data path*: ``call`` runs one table op (by RPC name, positional
    arguments in its record's order) on one slot; a routed op evaluates
    ``guard`` at the last moment before applying and raises
    :class:`~repro.service.stack.Rerouted` when it fails — or when the shard
    died before the op started.  ``search_many`` and ``track`` are the
    fan-out shape — one callable per slot that waits for (or, in one
    interpreter, runs) that slot's part and raises what it raised, shed
    (:class:`~repro.exceptions.ShardOverloadError`) included; ``track``
    itself raises when the slot cannot accept the tick.  ``stats`` is the
    best-effort probe: it answers for a slot that is down, too.
    *Reshard steps*:
    ``drain`` parks a source (``force`` = no graceful stop), ``snapshot``
    makes its WAL durable and serialises its engine, ``start`` boots a slot
    from a spec's files (one past the table = a new slot), ``resume``
    un-parks a source whose reshard aborted, ``retire`` tombstones a
    merged-away source.
    """

    lock: Any  #: serialises failovers and reshard actions (re-entrant)
    load_metric: str  #: histogram whose per-shard p95 is the load signal

    def call(self, op: str, slot, guard, *args) -> Any: ...
    def search_many(self, slots, request, k) -> List[Callable[[], Any]]: ...
    def track(self, slot, now_s) -> Callable[[], int]: ...

    def stats(self, slot) -> Dict[str, Any]: ...
    def states(self) -> Dict[int, str]: ...
    def recoveries(self) -> Dict[int, Dict[str, Any]]: ...
    def crash(self, slot, *, mid_book=False): ...

    def drain(self, slot, *, force=False): ...
    def snapshot(self, slot) -> Dict[str, Any]: ...
    def start(self, spec: ShardSpec): ...
    def resume(self, slot): ...
    def retire(self, slot): ...
    def close(self): ...
    def abandon(self): ...


class ThreadTransport:
    """In-process shards: one :class:`ShardStack` per slot, in-place failover."""

    load_metric = "xar_shard_service_seconds"

    @staticmethod
    def layout(slot: int, generation: Optional[int]) -> Tuple[str, str]:
        """Flat files in the durability directory, generation-suffixed once
        a reshard has rewritten the slot (``shard0.g3.wal``)."""
        stem = (f"shard{slot}" if generation is None
                else f"shard{slot}.g{generation}")
        return f"{stem}.wal", f"{stem}.ckpt"

    def __init__(
        self,
        region: DiscretizedRegion,
        specs: List[Optional[ShardSpec]],
        config: StackConfig,
        *,
        digest: str,
        metrics: MetricsRegistry,
        engine_factory: Optional[Callable[[ShardSpec], XAREngine]] = None,
    ):
        #: One lock serialises all recoveries AND all reshard actions
        #: (re-entrant: a drain may heal a crashed shard first).
        self.lock = threading.RLock()
        self._closed = False
        self._build = functools.partial(
            ShardStack, region, config=config, digest=digest,
            metrics=metrics, engine_factory=engine_factory,
        )
        self._c_failovers = metrics.counter(
            "xar_failovers_total",
            "Shard worker crashes recovered by the failover supervisor",
            labels=("shard",),
        )
        self.shards: List[ShardStack] = []
        for slot, spec in enumerate(specs):
            if spec is not None:
                self.start(spec)
            else:
                # Merged away before this restart: a stackless tombstone
                # (no routing table can name it).
                self.shards.append(ShardStack.tombstone(slot))
        #: Open while the transport is: every thread that takes the turn
        #: meanwhile runs on one CPU (:class:`~repro.service.shard._Turn`).
        ENGINE_TURN.place()
        self._placed = True

    def _unplace(self) -> None:
        if self._placed:
            self._placed = False
            ENGINE_TURN.unplace()

    def _active(self) -> List[ShardStack]:
        return [shard for shard in self.shards if shard.active]

    # ------------------------------------------------------------------
    # Failover supervision
    # ------------------------------------------------------------------
    def _live(self, slot: int) -> ShardStack:
        shard = self.shards[slot]
        if shard.worker.crashed:
            self._failover(shard)
        return shard

    def _with_failover(self, slot: int, attempt: Callable[[ShardStack], Any],
                       *, reroute: bool = False) -> Any:
        """Run ``attempt`` on a live shard, recovering it first if needed.

        A crash *mid-operation* re-raises after failover — the op may
        already be in the WAL, and recovery has replayed it, so a blind
        retry would double-apply.  An op that *never started*
        (``mid_op=False``: the worker was dead or retired when it was
        admitted or when it took the turn) is retried once on the recovered
        shard; a routed mutation (``reroute``) goes back to the core
        instead, which re-resolves — routing may have moved — and
        resubmits.
        """
        shard = self._live(slot)
        try:
            return attempt(shard)
        except WorkerCrashError as exc:
            self._failover(shard)
            if exc.mid_op:
                raise
            if reroute:
                raise Rerouted() from None
            return attempt(shard)

    def _failover(self, shard: ShardStack) -> None:
        """Recover a crashed shard in place: replay its WAL (checkpoint +
        suffix) into a fresh stack."""
        with self.lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if not shard.active or not shard.worker.crashed:
                # Recovered by another caller — or resharded while we waited
                # on the lock: the "crash" we saw was the worker being
                # retired, and the caller re-resolves routing.
                return
            if shard.spec.wal_path is None:
                raise RecoveryError(
                    f"shard {shard.shard_id} crashed but the service has no "
                    "durability configured: its state is unrecoverable"
                )
            # Disarm any one-shot crash hook and release the dead stack's
            # WAL handle so the rebuilt stack can reopen the file.
            shard.engine.fault_hook = None
            shard.release_wal(sync=False)
            shard.adopt(self._build(spec=shard.spec))
            self._c_failovers.labels(shard=str(shard.shard_id)).inc()

    def supervise(self) -> int:
        """Sweep every shard and recover any whose worker died; returns the
        number of failovers performed."""
        crashed = [shard for shard in self._active() if shard.worker.crashed]
        for shard in crashed:
            self._failover(shard)
        return len(crashed)

    def crash(self, slot: int, *, mid_book: bool = False) -> None:
        """Chaos: kill a shard's worker as a process death would — a job
        that dies in the shard's turn, or the armed mid-book hook."""
        shard = self.shards[slot]
        if shard.spec.wal_path is None:
            raise ConfigurationError(
                "crash injection requires a durable service "
                "(pass durability=DurabilityConfig(...))"
            )
        if mid_book:
            shard.arm_mid_book_crash()
            return

        def die() -> None:
            raise WorkerCrashError(f"injected crash in shard {slot}")

        try:
            shard.worker.call("crash", die)
        except (WorkerCrashError, ShardOverloadError, ServiceClosedError):
            pass  # dead now — or already dead, saturated, shutting down

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def call(self, op, slot, guard, *args):
        """One table op on one slot: its local body
        (:meth:`ShardStack.run`) behind the failover rule."""
        spec = OPS[op]
        return self._with_failover(
            slot, lambda shard: shard.run(spec, args, guard),
            reroute=spec.adapter_job)

    def search_many(self, slots, request, k):
        """A search of one slot runs as it is gathered, behind the failover
        rule.  A search of several is one pass (:meth:`_search_pass`)."""
        if len(slots) > 1:
            try:
                shards = [self._live(slot) for slot in slots]
            except XARError:
                pass  # shut down or unrecoverable: each read raises its own
            else:
                return self._search_pass(shards, request, k)

        def read(shard: ShardStack) -> Any:
            return shard.search(request, k)

        return [functools.partial(self._with_failover, slot, read)
                for slot in slots]

    def _search_pass(self, shards, request, k):
        """Search live ``shards`` in one kernel pass, in one turn.

        Every shard is asked to admit the search; one that sheds, is shut
        down or bounces is left out, and its gatherable raises that.  The
        rest take part: their engines are searched together
        (:meth:`XAREngine.search` with ``peers``, each engine's lock taken
        in slot order) and each counts one ``search`` job.  The first of
        them returns the pass's ranked batch, the others an empty one — or,
        when the pass raised, every one of them raises it, so the core
        counts one failure per consulted slot as it would for separate
        reads.
        """
        def search(taking: List[int]) -> Any:
            engines = [shards[i].engine for i in taking]
            return engines[0].search(request, k, peers=engines[1:])

        result, error, refusals = serve_pass(
            [shard.worker for shard in shards], "search", search)
        if error is not None and isinstance(error, WorkerCrashError):
            for shard, refusal in zip(shards, refusals):
                if refusal is None:
                    self._failover(shard)

        def lead() -> Any:
            if error is not None:
                raise error
            return result

        def rest() -> Any:
            if error is not None:
                raise error
            return []

        gathers = [
            rest if refusal is None else functools.partial(_raise, refusal)
            for refusal in refusals
        ]
        if None in refusals:
            gathers[refusals.index(None)] = lead
        return gathers

    def track(self, slot, now_s):
        def sweep(shard: ShardStack) -> int:
            try:
                return shard.run(OPS["track"], (now_s,))
            except WorkerCrashError as exc:
                if not exc.mid_op:
                    raise  # never started: recovered, then retried once
                # The tick crashed this shard mid-sweep.  Its WAL holds the
                # track record, so recovery replays the sweep; the tick is
                # not lost, just accounted to the recovered engine.
                self._failover(shard)
                return 0

        swept = self._with_failover(slot, sweep)
        return lambda: swept

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, slot):
        return self.shards[slot].stats()

    def states(self):
        return {
            shard.shard_id: "crashed" if shard.worker.crashed else "live"
            for shard in self._active()
        }

    def recoveries(self):
        return {
            shard.shard_id: shard.recovery
            for shard in self._active()
            if shard.recovery is not None
        }

    # ------------------------------------------------------------------
    # Reshard steps
    # ------------------------------------------------------------------
    def drain(self, slot, *, force=False):
        """Retire the slot's worker: an op that has not started bounces to
        its caller (which fails over: blocks on the lock, then
        re-resolves), the op holding the turn finishes."""
        del force  # a thread shard has no process to signal
        shard = self._live(slot)  # heal a crashed shard before carving it
        shard.worker.retire()
        shard.engine.fault_hook = None

    def snapshot(self, slot):
        shard = self.shards[slot]
        shard.durable.wal.sync()
        with shard.engine.lock:
            return engine_state(shard.engine)

    def resume(self, slot):
        """The old engine, adapter and WAL handle are untouched (carving
        only *read* state), so a fresh worker restores service."""
        self.shards[slot].adopt(None)

    def start(self, spec):
        """Boot a slot from its files.  A surviving slot's rebuild
        round-trips the carved checkpoint + empty WAL — the same replay a
        restart takes, so the swap validates what a crash would depend on."""
        slot = spec.slot
        if slot == len(self.shards):
            self.shards.append(self._build(spec=spec))
        else:
            shard = self.shards[slot]
            shard.release_wal(sync=True)
            shard.adopt(self._build(spec=spec))
        if spec.wal_path is not None:
            self._c_failovers.labels(shard=str(slot))

    def retire(self, slot):
        """Tombstone a merged-away slot: its ops bounced when it drained."""
        self.shards[slot].entomb()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def abandon(self) -> None:
        """Process-death teardown: every WAL handle is dropped *without*
        its final fsync barrier, then the workers stop.  What a restart
        finds on disk is what a SIGKILL would have left."""
        self._closed = True
        try:
            for shard in self._active():
                shard.engine.fault_hook = None
                shard.release_wal(sync=False)
            for shard in self._active():
                shard.worker.close()
        finally:
            self._unplace()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for shard in self._active():
                shard.worker.close()
                # Final fsync barrier: everything the service acknowledged
                # is on disk before the handles go away.
                shard.release_wal(sync=True)
        finally:
            self._unplace()
