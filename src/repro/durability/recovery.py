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

from ..core.engine import XAREngine
from ..discretization import DiscretizedRegion, region_digest
from ..exceptions import RecoveryError, XARError
from ..obs import MetricsRegistry
from .checkpoint import read_checkpoint, restore_engine_state
from .records import ABORT, ROLLBACK, WAL_OPS
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


#: The engine method each logged op re-executes with its decoded values
#: (looked up on the engine at replay time).
_ENGINE_METHODS = {
    "book": "book",
    "cancel": "remove_ride",
    "cancel_booking": "cancel_booking",
    "track": "track_all",
}


def replay_record(engine: XAREngine, record: Dict[str, Any]) -> None:
    """Re-execute one WAL ``op`` record against the engine."""
    op = record["op"]
    if op not in WAL_OPS:
        raise RecoveryError(f"WAL op record with unknown op {op!r}")
    values = WAL_OPS[op].decode(record)
    if op == "create":
        ride_id, src, dst, departure_s, seats, detour_limit_m, driver_id, \
            shift_end_s = values
        # Pin the allocator to the id the live run predicted; this also
        # self-heals the gap left by a create that consumed an id and then
        # failed without an abort record reaching the log.
        engine._ride_ids.next_value = ride_id
        engine.create_ride(src, dst, departure_s, detour_limit_m, seats,
                           driver_id=driver_id, shift_end_s=shift_end_s)
        return
    getattr(engine, _ENGINE_METHODS[op])(*values)
    if op == "book":
        # Keep the request-id allocator ahead of every replayed request so a
        # post-recovery make_request cannot reuse a logged id.
        request_id = values[0].request_id
        if engine._request_ids.next_value <= request_id:
            engine._request_ids.next_value = request_id + 1


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
        ABORT.decode(record)[0]: record
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
                engine.rollbacks.append(ROLLBACK.decode(abort, None))
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
