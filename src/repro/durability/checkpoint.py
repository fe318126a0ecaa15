"""Engine checkpoints: versioned, digest-stamped snapshots of an XAREngine.

A checkpoint bounds recovery time: instead of replaying a shard's entire
write-ahead log from empty, recovery restores the latest checkpoint and
replays only the WAL suffix past the checkpoint's ``wal_seq``.

The file is JSON (atomic tmp-file + ``os.replace`` write) holding the full
mutable engine state — rides with their live routes / via-points / seat and
detour budgets / tracking progress, the completed-ride archive, the booking
and rollback ledgers, and the id allocators.  The cluster index is **not**
serialized: it is a pure function of the rides plus their tracked progress,
so restore rebuilds it deterministically (:func:`restore_engine_state`),
which both shrinks the file and means a checkpoint can never carry a
corrupted index forward.

Every checkpoint is stamped with the discretization build's content digest
(:func:`~repro.discretization.region_digest`).  Search and booking answers
depend on the cluster geometry, so restoring a checkpoint against a
different build would silently diverge — the reader rejects it with
:class:`~repro.exceptions.CheckpointError` instead.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from ..core.engine import XAREngine
from ..core.ride import PassengerRecord, Ride, RideStatus, ViaPoint
from ..core.tracking import apply_obsolescence
from ..discretization import DiscretizedRegion, region_digest
from ..exceptions import CheckpointError
from ..geo import GeoPoint
from .records import LEDGERS

CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def ride_state(ride: Ride) -> Dict[str, Any]:
    return {
        "ride_id": ride.ride_id,
        "route": ride.route,
        "departure_s": ride.departure_s,
        "detour_limit_m": ride.detour_limit_m,
        "detour_limit_initial_m": ride.detour_limit_initial_m,
        "seats_total": ride.seats_total,
        "seats_available": ride.seats_available,
        "status": ride.status.value,
        "progressed_m": ride.progressed_m,
        "base_length_m": ride.base_length_m,
        "driver_id": ride.driver_id,
        "shift_end_s": ride.shift_end_s,
        "retired": ride.retired,
        "source": [ride.source_point.lat, ride.source_point.lon],
        "destination": [ride.destination_point.lat, ride.destination_point.lon],
        "via_points": [
            [via.node, via.route_index, via.label, via.request_id]
            for via in ride.via_points
        ],
        "passengers": [
            [p.request_id, p.max_detour_m, p.baseline_onboard_m]
            for p in ride.passengers.values()
        ],
    }


def engine_state(engine: XAREngine) -> Dict[str, Any]:
    """The full mutable state of an engine, as a JSON-serializable dict.

    Call under ``engine.lock`` (the durable adapter does) so the snapshot is
    a consistent point-in-time cut.
    """
    return {
        "rides": [ride_state(r) for r in engine.rides.values()],
        "completed_rides": [
            ride_state(r) for r in engine.completed_rides.values()
        ],
        "tracked_to": sorted(
            [ride_id, t] for ride_id, t in engine.tracked_to.items()
        ),
        **{key: [row.encode(entry) for entry in getattr(engine, key)]
           for key, row in LEDGERS.items()},
        "counters": engine.counter_state(),
    }


def write_checkpoint(
    path: str,
    engine: XAREngine,
    *,
    shard_id: int = 0,
    wal_seq: int = -1,
    digest: Optional[str] = None,
) -> None:
    """Atomically persist the engine's state.

    ``wal_seq`` is the highest WAL sequence number already reflected in this
    state; recovery replays only records past it.  The tmp-file +
    ``os.replace`` dance means a crash mid-checkpoint leaves the previous
    checkpoint intact rather than a half-written file.

    The parent *directory* is fsynced after the rename: ``os.replace``
    updates a directory entry, and that entry lives in the directory's own
    data blocks — without the directory fsync a power cut can forget the
    rename entirely and resurface the pre-checkpoint file (or nothing),
    even though the new file's *contents* were fsynced.  Recovery would
    then replay from a WAL position the lost checkpoint was supposed to
    cover.
    """
    write_checkpoint_state(
        path,
        engine_state(engine),
        region_digest=(
            digest if digest is not None else region_digest(engine.region)
        ),
        shard_id=shard_id,
        wal_seq=wal_seq,
    )


def write_checkpoint_state(
    path: str,
    state: Dict[str, Any],
    *,
    region_digest: str,
    shard_id: int = 0,
    wal_seq: int = -1,
) -> None:
    """Atomically persist an already-serialized :func:`engine_state` dict.

    The resharding carve path builds child states by partitioning a parent
    snapshot — no child engine exists yet to snapshot — so the atomic
    tmp-file + rename + directory-fsync protocol is exposed at the state
    level too.  :func:`write_checkpoint` is now a thin wrapper over this.
    """
    payload = {
        "format": "xar.checkpoint",
        "version": CHECKPOINT_VERSION,
        "region_digest": region_digest,
        "shard_id": shard_id,
        "wal_seq": wal_seq,
        "engine": state,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk (durability of renames).

    Best-effort on platforms whose directories cannot be opened/fsynced
    (e.g. Windows): the rename is still atomic there, just not guaranteed
    durable across power loss.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def read_checkpoint(path: str, *, expected_digest: str = "") -> Dict[str, Any]:
    """Load and validate a checkpoint file (format, version, digest)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if payload.get("format") != "xar.checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version "
            f"{payload.get('version')!r} (this build reads "
            f"{CHECKPOINT_VERSION})"
        )
    if expected_digest and payload.get("region_digest") != expected_digest:
        raise CheckpointError(
            f"{path}: checkpoint was taken against a different discretization "
            f"build (digest {str(payload.get('region_digest'))[:12]}…, "
            f"expected {expected_digest[:12]}…) — stale checkpoints cannot be "
            "replayed onto new geometry"
        )
    return payload


def restore_ride(region: DiscretizedRegion, state: Dict[str, Any]) -> Ride:
    route = [int(n) for n in state["route"]]
    shift_end = state.get("shift_end_s")
    ride = Ride(
        ride_id=int(state["ride_id"]),
        network=region.network,
        route=route,
        departure_s=float(state["departure_s"]),
        detour_limit_m=float(state["detour_limit_m"]),
        seats=int(state["seats_total"]),
        source_point=GeoPoint(*[float(c) for c in state["source"]]),
        destination_point=GeoPoint(*[float(c) for c in state["destination"]]),
        driver_id=state["driver_id"],
        shift_end_s=None if shift_end is None else float(shift_end),
    )
    ride.replace_route(
        ride.geometry,  # the route the constructor just laid out
        [
            ViaPoint(
                node=int(node),
                route_index=int(index),
                label=str(label),
                request_id=None if request_id is None else int(request_id),
            )
            for node, index, label, request_id in state["via_points"]
        ],
    )
    ride.seats_available = int(state["seats_available"])
    ride.status = RideStatus(state["status"])
    ride.progressed_m = float(state["progressed_m"])
    # The ctor recomputed base_length_m from the stored (possibly already
    # spliced) route; put back the original offer's length.  Same for the
    # declared initial detour budget (the ctor copied the *current* one).
    ride.base_length_m = float(state["base_length_m"])
    ride.detour_limit_initial_m = float(
        state.get("detour_limit_initial_m", state["detour_limit_m"])
    )
    ride.retired = bool(state.get("retired", False))
    for request_id, max_detour, baseline in state.get("passengers", []):
        ride.passengers[int(request_id)] = PassengerRecord(
            request_id=int(request_id),
            max_detour_m=None if max_detour is None else float(max_detour),
            baseline_onboard_m=float(baseline),
        )
    return ride


def restore_engine_state(engine: XAREngine, state: Dict[str, Any]) -> None:
    """Populate a freshly constructed engine from :func:`engine_state`.

    The cluster index is rebuilt from scratch: every live ride is re-indexed
    against the current region, then each ride's obsolescence is re-applied
    at its checkpointed tracking watermark (obsolescence is monotone in
    time, so the one-shot application at the final watermark reproduces the
    incremental sweeps exactly).
    """
    region = engine.region
    with engine.lock:
        tracked_to = {int(rid): float(t) for rid, t in state["tracked_to"]}
        for saved in state["rides"]:
            ride = restore_ride(region, saved)
            engine.rides[ride.ride_id] = ride
            engine._index_ride(ride)
        for saved in state["completed_rides"]:
            ride = restore_ride(region, saved)
            engine.completed_rides[ride.ride_id] = ride
        engine.tracked_to.update(tracked_to)
        for ride_id, tracked in tracked_to.items():
            ride = engine.rides.get(ride_id)
            if ride is not None and tracked > ride.departure_s:
                apply_obsolescence(engine, ride_id, tracked)
        for key, row in LEDGERS.items():
            getattr(engine, key).extend(
                row.decode(entry, region) for entry in state.get(key, []))
        engine.restore_counter_state(state["counters"])
