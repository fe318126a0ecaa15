"""Durable primitives for elastic resharding: topology manifest + state carve.

A reshard action (split or merge) rewrites *which files hold which shard's
truth*.  Two pieces make that crash-safe:

* **State carving** — a parent shard's serialized :func:`engine_state`
  snapshot is partitioned into per-child states by ride ownership
  (:func:`split_engine_state`) or united from several parents
  (:func:`merge_engine_states`).  Ledger entries (bookings, rollbacks,
  cancellations) and tracking watermarks follow their ride; records whose
  ride the predicate cannot place stay with the left/first child, so no
  ledger row is ever dropped — the offline exactly-once proof replays the
  children and must balance against the parent.

* **The topology manifest** — ``topology.json`` in the durability
  directory, written with the same atomic tmp-file + rename +
  directory-fsync protocol as checkpoints.  The manifest names, per slot,
  the WAL/checkpoint files holding that slot's truth (``wal`` / ``ckpt``,
  relative to the directory — one format for thread and process shards),
  plus the routing assignment, the ride-id lane table and the epoch.  Its atomic replacement is the *single commit point* of a reshard:
  child checkpoints and WAL headers are written first under new
  (generation-suffixed) names, so a crash before the manifest lands
  recovers the **old** topology from the old files, and a crash after
  recovers the **new** topology from the new files — never a mix.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..exceptions import DurabilityError
from .checkpoint import _fsync_directory
from .records import LEDGERS

TOPOLOGY_VERSION = 1
TOPOLOGY_FILENAME = "topology.json"


def topology_path(directory: str) -> str:
    return os.path.join(directory, TOPOLOGY_FILENAME)


# ----------------------------------------------------------------------
# Manifest I/O
# ----------------------------------------------------------------------
def write_topology(path: str, payload: Dict[str, Any]) -> None:
    """Atomically commit a topology manifest (THE reshard commit point)."""
    payload = dict(payload)
    payload.setdefault("format", "xar.topology")
    payload.setdefault("version", TOPOLOGY_VERSION)
    for required in ("epoch", "lane_modulus", "slots", "assignment"):
        if required not in payload:
            raise DurabilityError(
                f"topology manifest missing required field {required!r}"
            )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)


def read_topology(
    path: str, *, expected_digest: str = ""
) -> Optional[Dict[str, Any]]:
    """Load a topology manifest; ``None`` when none has been committed yet.

    A missing manifest is the common case — a service that never resharded —
    and means "use the deterministic default topology".  A *present but
    invalid* manifest is an error: guessing would route ops at the wrong
    WALs.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"{path}: unreadable topology manifest ({exc})") from exc
    if payload.get("format") != "xar.topology":
        raise DurabilityError(f"{path}: not a topology manifest")
    if payload.get("version") != TOPOLOGY_VERSION:
        raise DurabilityError(
            f"{path}: unsupported topology version {payload.get('version')!r} "
            f"(this build reads {TOPOLOGY_VERSION})"
        )
    if expected_digest and payload.get("region_digest", "") not in (
        "", expected_digest
    ):
        raise DurabilityError(
            f"{path}: topology manifest was committed against a different "
            f"discretization build (digest "
            f"{str(payload.get('region_digest'))[:12]}…, expected "
            f"{expected_digest[:12]}…)"
        )
    _normalise_slot_files(payload.get("slots", []))
    return payload


def _normalise_slot_files(entries: List[Dict[str, Any]]) -> None:
    """Rewrite a process-mode manifest written before the formats were
    unified — a ``dir`` per resharded slot, nothing for untouched ones —
    into ``wal``/``ckpt`` paths, so existing run directories still open."""
    if not any("dir" in entry for entry in entries):
        return
    for entry in entries:
        slot = int(entry["slot"])
        folder = entry.pop("dir", f"shard{slot}")
        if entry.get("active", True):
            entry.setdefault("wal", os.path.join(folder, f"shard{slot}.wal"))
            entry.setdefault("ckpt", os.path.join(folder, f"shard{slot}.ckpt"))


# ----------------------------------------------------------------------
# State carving
# ----------------------------------------------------------------------
def _empty_state(counters: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "rides": [],
        "completed_rides": [],
        "tracked_to": [],
        **{key: [] for key in LEDGERS},
        "counters": dict(counters),
    }


def split_engine_state(
    state: Dict[str, Any],
    goes_right: Callable[[Dict[str, Any]], bool],
    *,
    left_counters: Dict[str, Any],
    right_counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Partition a parent :func:`engine_state` snapshot into two children.

    ``goes_right`` inspects one serialized ride state (it has ``source`` as
    ``[lat, lon]``, which the router resolves to a cluster and then to the
    carved side).  Everything keyed by ride id — tracking watermarks and the
    three ledgers — follows its ride; entries whose ride id appears in
    neither child's rides (e.g. a rollback against a ride cancelled long
    ago) stay **left**, the child that keeps the parent's identity, so the
    union of the children is exactly the parent.

    Returns ``{"left": state, "right": state, "moved_rides": [ride ids]}``.
    """
    left = _empty_state(left_counters)
    right = _empty_state(right_counters)
    side: Dict[int, Dict[str, Any]] = {}
    for key in ("rides", "completed_rides"):
        for ride in state.get(key, []):
            target = right if goes_right(ride) else left
            target[key].append(ride)
            side[int(ride["ride_id"])] = target
    moved = sorted(
        int(ride["ride_id"])
        for key in ("rides", "completed_rides")
        for ride in right[key]
    )
    for ride_id, tracked in state.get("tracked_to", []):
        side.get(int(ride_id), left)["tracked_to"].append([ride_id, tracked])
    for key in LEDGERS:
        for record in state.get(key, []):
            side.get(int(record["ride_id"]), left)[key].append(record)
    return {"left": left, "right": right, "moved_rides": moved}


def merge_engine_states(
    states: Iterable[Dict[str, Any]],
    counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Union several :func:`engine_state` snapshots into one.

    Used by shard merges: the parents own disjoint ride-id lanes, so plain
    concatenation is collision-free.  ``counters`` are the destination
    child's allocator state (the merge keeps the destination's lane; the
    source's lane is parked and routed by the lane-owner table).
    """
    merged = _empty_state(counters)
    for state in states:
        for key in ("rides", "completed_rides", "tracked_to", *LEDGERS):
            merged[key].extend(state.get(key, []))
    merged["tracked_to"] = sorted(merged["tracked_to"])
    return merged

