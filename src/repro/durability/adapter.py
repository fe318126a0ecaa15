"""DurableAdapter: log-before-apply WAL wrapper around an engine adapter.

Sits *innermost* in the service stack — directly around
:class:`~repro.sim.adapters.XARAdapter`, underneath the shard worker — so
that every mutation that actually reaches the engine is logged, whichever
caller (router, replay, recovery) issued it.

Protocol per logged op (:data:`~repro.durability.records.WAL_OPS`):

1. append its ``op`` record, resolving all nondeterminism up front (the
   ride id the allocator will hand out, the full request + match for a book);
2. apply the op on the inner adapter;
3. on a clean engine failure (:class:`~repro.exceptions.XARError`) append
   an ``abort`` record naming the op's seq, then re-raise — replay skips
   aborted ops and re-records their rollbacks;
4. on a crash (anything else, e.g.
   :class:`~repro.exceptions.WorkerCrashError`) append nothing — the op
   record without an abort is exactly the signal recovery needs to
   *complete* the interrupted op.

Checkpoints are cut every ``checkpoint_every`` mutations (0 = only on
demand) under the engine lock, stamped with the WAL watermark they cover.
Reads (search, introspection) bypass the log entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.request import RideRequest
from ..exceptions import XARError
from ..geo import GeoPoint
from ..obs import MetricsRegistry
from ..sim.adapters import DelegatingAdapter, XARAdapter
from .checkpoint import write_checkpoint
from .records import ABORT, WAL_OPS
from .wal import WriteAheadLog


@dataclass
class DurabilityConfig:
    """Where and how aggressively a service persists its state."""

    #: Directory holding one ``shard<k>.wal`` + ``shard<k>.ckpt`` per shard.
    directory: str
    #: Appends between fsync barriers (1 = fsync every op; the default
    #: batches, which is what keeps durable throughput near the in-memory
    #: baseline).
    fsync_every: int = 64
    #: Mutations between automatic checkpoints (0 = never automatically).
    checkpoint_every: int = 0

    def wal_path(self, shard_id: int) -> str:
        """A never-resharded slot's WAL (a resharded slot's files are named
        by the topology manifest, see :mod:`repro.durability.reshard`)."""
        return os.path.join(self.directory, f"shard{shard_id}.wal")

    def checkpoint_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard{shard_id}.ckpt")


class DurableAdapter(DelegatingAdapter):
    """WAL + checkpoint decorator over :class:`XARAdapter`.

    Overrides the five logged mutations; reads (search, introspection) are
    the base's plain forwards and bypass the log.  The wrapped adapter stays
    reachable as ``.inner`` and the raw engine as ``.engine``
    (auditor/simulator convention).
    """

    def __init__(
        self,
        inner: XARAdapter,
        wal: WriteAheadLog,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        shard_id: int = 0,
        digest: str = "",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.inner = inner
        self.wal = wal
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.shard_id = shard_id
        self.digest = digest
        self.name = f"{inner.name}+wal"
        #: Highest WAL seq whose effect (apply or abort) is in the engine.
        self._last_seq = wal.next_seq - 1
        self._mutations_since_checkpoint = 0
        self._m_checkpoints = None
        if metrics is not None:
            self._m_checkpoints = metrics.counter(
                "xar_checkpoints_total",
                "Engine checkpoints written",
                labels=("shard",),
            ).labels(shard=str(shard_id))

    # ------------------------------------------------------------------
    # Logged mutations
    # ------------------------------------------------------------------
    def _logged(self, op: str, values: Tuple, call, *args,
                request_id=None, ride_id=None):
        """Log ``op`` (its ``WAL_OPS`` record over ``values``), then run
        ``call(*args)``; a clean engine failure is logged as an abort."""
        seq = self.wal.append({"kind": "op", "op": op,
                               **WAL_OPS[op].encode(values)})
        self._last_seq = seq
        try:
            result = call(*args)
        except XARError as exc:
            self._last_seq = self.wal.append({"kind": "abort", **ABORT.encode(
                (seq, request_id, ride_id, type(exc).__name__, str(exc)))})
            self._after_mutation()
            raise
        self._after_mutation()
        return result

    def _after_mutation(self) -> None:
        self._mutations_since_checkpoint += 1
        if (
            self.checkpoint_every > 0
            and self._mutations_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ):
        ride_id = self.engine.peek_next_ride_id()
        return self._logged(
            "create",
            (ride_id, source, destination, depart_s, seats, detour_limit_m,
             None, shift_end_s),
            self.inner.create, source, destination, depart_s, seats,
            detour_limit_m, shift_end_s, ride_id=ride_id,
        )

    def book(self, request: RideRequest, match):
        return self._logged(
            "book", (request, match), self.inner.book, request, match,
            request_id=request.request_id, ride_id=match.ride_id,
        )

    def cancel(self, ride) -> None:
        return self._logged("cancel", (ride.ride_id,), self.inner.cancel,
                            ride, ride_id=ride.ride_id)

    def cancel_booking(self, request_id: int, ride_id: int):
        return self._logged(
            "cancel_booking", (request_id, ride_id), self.inner.cancel_booking,
            request_id, ride_id, request_id=request_id, ride_id=ride_id,
        )

    def track_all(self, now_s: float) -> int:
        return self._logged("track", (now_s,), self.inner.track_all, now_s)

    # ------------------------------------------------------------------
    # Checkpointing / lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Cut a checkpoint covering everything logged so far."""
        if self.checkpoint_path is None:
            return
        engine = self.engine
        with engine.lock:
            # Barrier first: a checkpoint must never cover records the disk
            # does not hold yet.
            self.wal.sync()
            write_checkpoint(
                self.checkpoint_path,
                engine,
                shard_id=self.shard_id,
                wal_seq=self._last_seq,
                digest=self.digest or None,
            )
        self._mutations_since_checkpoint = 0
        if self._m_checkpoints is not None:
            self._m_checkpoints.inc()

    def close(self) -> None:
        self.wal.close()

    def abandon(self) -> None:
        """Drop the WAL handle without the final sync (crash simulation)."""
        self.wal.abandon()
