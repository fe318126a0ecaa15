"""Crash recovery: checkpoint restore + deterministic WAL replay.

:func:`recover_engine` rebuilds a shard engine after a crash:

1. scan the write-ahead log (torn tail measured and ignored — the last
   complete record wins), validating its header against the live region's
   content digest;
2. restore the latest checkpoint, if one exists (rejected when stale
   against the region or written by another shard);
3. replay the WAL suffix — every ``op`` record with ``seq`` greater than
   the checkpoint's watermark — against a freshly constructed engine.

Replay is deterministic because every nondeterministic input was resolved
*before* logging: creates carry the ride id the allocator was about to hand
out (the replayer pins the allocator to it), books carry the full request
and the full match (no search is re-run), tracks carry the simulated
timestamp.  Ops that failed cleanly in the live run have an ``abort``
record; replay skips them and re-records the rollback, so an environment-
dependent failure (an injected fault that is gone now) cannot make the
replayed engine diverge from the pre-crash one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.booking import BookingRollback
from ..core.engine import XAREngine
from ..core.request import RideRequest
from ..core.search import MatchOption
from ..discretization import DiscretizedRegion, region_digest
from ..exceptions import RecoveryError, XARError
from ..geo import GeoPoint
from ..obs import MetricsRegistry
from .checkpoint import read_checkpoint, restore_engine_state
from .wal import WalScan, scan_wal


@dataclass
class RecoveryResult:
    """What a recovery did, for supervisors, CLIs and tests."""

    engine: XAREngine
    shard_id: int
    #: Ops re-executed from the WAL suffix.
    replayed_ops: int
    #: Ops skipped because the live run aborted them (abort records).
    skipped_ops: int
    #: Ops that raised a (deterministic) XARError again during replay.
    failed_ops: int
    #: Bytes discarded past the last complete WAL record (0 = clean tail).
    torn_tail_bytes: int
    #: WAL watermark the checkpoint covered (-1 = no checkpoint).
    checkpoint_seq: int
    #: Highest WAL seq observed (-1 = empty log).
    last_seq: int
    duration_s: float


def request_from(state: Dict[str, Any]) -> RideRequest:
    max_detour = state.get("max_detour_m")
    return RideRequest(
        request_id=int(state["request_id"]),
        source=GeoPoint(*[float(c) for c in state["source"]]),
        destination=GeoPoint(*[float(c) for c in state["destination"]]),
        window_start_s=float(state["window_start_s"]),
        window_end_s=float(state["window_end_s"]),
        walk_threshold_m=float(state["walk_threshold_m"]),
        max_detour_m=None if max_detour is None else float(max_detour),
    )


def match_from(state: Dict[str, Any]) -> MatchOption:
    return MatchOption(
        ride_id=int(state["ride_id"]),
        request_id=int(state["request_id"]),
        pickup_cluster=int(state["pickup_cluster"]),
        pickup_landmark=int(state["pickup_landmark"]),
        walk_source_m=float(state["walk_source_m"]),
        dropoff_cluster=int(state["dropoff_cluster"]),
        dropoff_landmark=int(state["dropoff_landmark"]),
        walk_destination_m=float(state["walk_destination_m"]),
        eta_pickup_s=float(state["eta_pickup_s"]),
        eta_dropoff_s=float(state["eta_dropoff_s"]),
        detour_estimate_m=float(state["detour_estimate_m"]),
    )


def replay_record(engine: XAREngine, record: Dict[str, Any]) -> None:
    """Re-execute one WAL ``op`` record against the engine."""
    op = record["op"]
    if op == "create":
        # Pin the allocator to the id the live run predicted; this also
        # self-heals the gap left by a create that consumed an id and then
        # failed without an abort record reaching the log.
        engine._ride_ids.next_value = int(record["ride_id"])
        engine.create_ride(
            GeoPoint(*[float(c) for c in record["src"]]),
            GeoPoint(*[float(c) for c in record["dst"]]),
            departure_s=float(record["departure_s"]),
            detour_limit_m=(
                None
                if record.get("detour_limit_m") is None
                else float(record["detour_limit_m"])
            ),
            seats=None if record.get("seats") is None else int(record["seats"]),
            driver_id=record.get("driver_id"),
            shift_end_s=(
                None
                if record.get("shift_end_s") is None
                else float(record["shift_end_s"])
            ),
        )
    elif op == "book":
        request = request_from(record["request"])
        match = match_from(record["match"])
        engine.book(request, match)
        # Keep the request-id allocator ahead of every replayed request so a
        # post-recovery make_request cannot reuse a logged id.
        if engine._request_ids.next_value <= request.request_id:
            engine._request_ids.next_value = request.request_id + 1
    elif op == "cancel":
        engine.remove_ride(int(record["ride_id"]))
    elif op == "cancel_booking":
        engine.cancel_booking(int(record["request_id"]), int(record["ride_id"]))
    elif op == "track":
        engine.track_all(float(record["now_s"]))
    else:
        raise RecoveryError(f"WAL op record with unknown op {op!r}")


def recover_engine(
    region: DiscretizedRegion,
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    *,
    engine_factory: Optional[Callable[[], XAREngine]] = None,
    metrics: Optional[MetricsRegistry] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> RecoveryResult:
    """Rebuild a shard engine from its checkpoint + WAL suffix.

    ``engine_factory`` builds the empty engine to replay into; it must
    mirror the live engine's configuration (optimize_insertion, router,
    metrics labels).  When omitted, a plain engine on the WAL header's
    ride-id lane is constructed.  ``checkpoint_path`` pointing at a missing
    file is treated as "no checkpoint yet" — replay starts from empty.
    """
    started = clock()
    digest = region_digest(region)
    scan: WalScan = scan_wal(wal_path)
    header = scan.header
    if header is None:
        # Empty (or header-less) WAL: the shard died before its very first
        # write — even the header frame — which SIGKILL at spawn time can
        # produce.  Valid, just young: recover to the checkpoint if one
        # exists, else an empty engine; nothing to replay.
        header = {}
    if header.get("region_digest", "") not in ("", digest):
        raise RecoveryError(
            f"{wal_path}: WAL was written for a different discretization "
            f"build (digest {str(header.get('region_digest'))[:12]}…, "
            f"expected {digest[:12]}…)"
        )
    shard_id = int(header.get("shard_id", 0))
    labels = {"shard": str(shard_id)}

    if engine_factory is not None:
        engine = engine_factory()
    else:
        engine = XAREngine(
            region,
            ride_id_start=int(header.get("ride_id_start", 1)),
            ride_id_step=int(header.get("ride_id_step", 1)),
        )

    checkpoint_seq = -1
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        payload = read_checkpoint(checkpoint_path, expected_digest=digest)
        if int(payload.get("shard_id", 0)) != shard_id:
            raise RecoveryError(
                f"{checkpoint_path}: checkpoint belongs to shard "
                f"{payload.get('shard_id')}, WAL to shard {shard_id}"
            )
        restore_engine_state(engine, payload["engine"])
        checkpoint_seq = int(payload.get("wal_seq", -1))

    # Ops the live run aborted after logging: skip on replay, but re-record
    # the rollback so the ledger matches the pre-crash engine.
    aborts = {
        int(record["aborts"]): record
        for record in scan.records
        if record.get("kind") == "abort"
    }

    replayed = skipped = failed = 0
    for record in scan.records:
        if record.get("kind") != "op" or int(record["seq"]) <= checkpoint_seq:
            continue
        abort = aborts.get(int(record["seq"]))
        if abort is not None:
            skipped += 1
            if record["op"] == "book":
                engine.rollbacks.append(
                    BookingRollback(
                        request_id=int(abort["request_id"]),
                        ride_id=int(abort["ride_id"]),
                        error=str(abort["error"]),
                        reason=str(abort["reason"]),
                    )
                )
            continue
        try:
            replay_record(engine, record)
            replayed += 1
        except XARError:
            # A deterministic failure that crashed the worker before its
            # abort record could be written; the engine has already rolled
            # back and recorded it, exactly as the live run would have.
            failed += 1

    duration = clock() - started
    if metrics is not None:
        label_names = ("shard",)
        metrics.counter(
            "xar_recovery_replayed_ops_total",
            "WAL ops re-executed during crash recovery",
            labels=label_names,
        ).labels(**labels).inc(replayed)
        if scan.torn_bytes:
            metrics.counter(
                "xar_wal_torn_tail_total",
                "Recoveries that found (and truncated past) a torn WAL tail",
                labels=label_names,
            ).labels(**labels).inc()
        metrics.histogram(
            "xar_recovery_duration_seconds",
            "Wall-clock duration of crash recoveries",
            labels=label_names,
        ).labels(**labels).observe(duration)

    return RecoveryResult(
        engine=engine,
        shard_id=shard_id,
        replayed_ops=replayed,
        skipped_ops=skipped,
        failed_ops=failed,
        torn_tail_bytes=scan.torn_bytes,
        checkpoint_seq=checkpoint_seq,
        last_seq=scan.last_seq,
        duration_s=duration,
    )
