"""The reshard state machine: one path for splits and merges, any transport.

A reshard action rewrites *which slots own which clusters* and *which files
hold which slot's truth*.  A split is "1 source → 2 outputs", a merge is
"2 sources → 1 output"; everything else is shared and runs through five
phases (``fault_hook``, when given, is invoked with each phase name after it
completes — the crash-differential fuzzer raises from it to prove every
window recovers cleanly):

1. **drained** — every source slot is parked: no new operation can reach
   it, and one accepted before that which has not started waits in its
   caller, to re-resolve once the reshard is done;
2. **synced** — every source's WAL is durable and its engine state has
   been serialised (live engine, or offline recovery of a stopped child);
3. **carved** — the states are partitioned by ride-source ownership (split)
   or united (merge) and every output's checkpoint + header-only WAL is
   written under new generation-suffixed names: nothing the old topology
   reads has been touched;
4. **committed** — ``topology.json`` is atomically replaced: THE commit
   point.  Before it a crash recovers the old topology from the old files;
   after it, the new topology from the new files — never a mix;
5. **swapped** — the live tables are installed, retired sources are
   tombstoned and every output is serving from its new files.

A failure before the commit point unwinds in process (the sources resume
exactly where they stopped — carving only *read* them); a failure after it
rolls **forward**: the manifest is already the new truth, and re-installing
the old topology in memory would append new ops to superseded WALs that a
restart ignores.

Swap order matters for operations racing the reshard: brand-new slots start
*first* (nothing routes to them yet), then the tables are installed, then
retired sources are tombstoned and the surviving slot restarts last — so by
the time a parked operation can wake, the tables it re-resolves against are
the new ones and every slot they can name is live.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from ..discretization import DiscretizedRegion
from ..durability import merge_engine_states, split_engine_state
from ..geo import GeoPoint
from ..obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry
from .routing import RoutingTable
from .stack import write_shard_files
from .transport import ShardTransport

#: Carve step: ``(source states) -> (draft manifest, {output slot: state},
#: migrated ride count)``.
Carve = Callable[[List[Dict[str, Any]]], Any]


class ReshardMachine:
    """Executes split/merge over a :class:`RoutingTable` and a transport."""

    def __init__(self, region: DiscretizedRegion, table: RoutingTable,
                 transport: ShardTransport, metrics: MetricsRegistry):
        self.region = region
        self.table = table
        self.transport = transport
        self._c_reshard = metrics.counter(
            "xar_reshard_total",
            "Elastic reshard actions executed (topology manifest committed)",
            labels=("action",),
        )
        self._h_reshard_s = metrics.histogram(
            "xar_reshard_duration_seconds",
            "Wall-clock of one reshard action, drain through swap",
            labels=("action",),
            buckets=DEFAULT_LATENCY_BUCKETS_S,
        )
        for action in ("split", "merge"):
            self._c_reshard.labels(action=action)
            self._h_reshard_s.labels(action=action)
        self._c_migrated = metrics.counter(
            "xar_reshard_migrated_rides_total",
            "Rides whose home slot changed in a reshard action",
        )
        self._c_migrated.labels()
        self._g_epoch = metrics.gauge(
            "xar_routing_epoch",
            "Routing-table epoch (bumped by every reshard swap)",
        )
        self._g_epoch.set(table.epoch)

    # ------------------------------------------------------------------
    # The two actions: operand checks + the carve step
    # ------------------------------------------------------------------
    def split(self, shard_id: int, *, fault_hook=None,
              force: bool = False) -> int:
        """Split one slot in two at a load-weighted cluster boundary;
        returns the new slot id."""
        table = self.table
        with self.transport.lock:
            slot = table.check_split(shard_id)
            new_slot = table.n_slots

            def carve(states: List[Dict[str, Any]]):
                (state,) = states
                # Load-weighted cut: weight = live rides homed per cluster.
                weights: Dict[int, float] = {}
                for ride in state["rides"]:
                    cluster_id = self._source_cluster(ride)
                    if cluster_id is not None:
                        weights[cluster_id] = weights.get(cluster_id, 0.0) + 1.0
                manifest, right = table.draft_split(slot, weights)
                moved = {
                    cluster_id
                    for cluster_id, owner in enumerate(manifest["assignment"])
                    if owner == right
                }
                counters = state["counters"]
                carved = split_engine_state(
                    state,
                    lambda ride: self._source_cluster(ride) in moved,
                    left_counters=dict(counters),
                    right_counters={
                        "ride_next": manifest["slots"][right]["lane"] + 1,
                        "ride_step": table.lane_modulus,
                        "request_next": counters["request_next"],
                    },
                )
                for ride_id in carved["moved_rides"]:
                    manifest["ride_homes"][str(ride_id)] = right
                children = {slot: carved["left"], right: carved["right"]}
                return manifest, children, len(carved["moved_rides"])

            self._run("split", [slot], carve, fault_hook, force)
            return new_slot

    def merge(self, dst_id: int, src_id: int, *, fault_hook=None) -> int:
        """Fold one slot into another (strip-adjacent preferred); returns
        the destination slot id."""
        table = self.table
        with self.transport.lock:
            dst, src = table.check_merge(dst_id, src_id)

            def carve(states: List[Dict[str, Any]]):
                dst_state, src_state = states
                manifest = table.draft_merge(dst, src)
                # The parents own disjoint lanes, so the union is
                # collision-free; the destination keeps its own allocator.
                merged = merge_engine_states(states, dst_state["counters"])
                absorbed = len(src_state["rides"]) + len(
                    src_state["completed_rides"]
                )
                return manifest, {dst: merged}, absorbed

            self._run("merge", [dst, src], carve, fault_hook, False)
            return dst

    def _source_cluster(self, ride_state: Dict[str, Any]) -> Optional[int]:
        lat, lon = ride_state["source"]
        return self.region.cluster_of_point(GeoPoint(lat, lon))

    # ------------------------------------------------------------------
    # The machine
    # ------------------------------------------------------------------
    def _run(self, action: str, sources: List[int], carve: Carve,
             fault_hook: Optional[Callable[[str], None]],
             force: bool) -> None:
        table, transport = self.table, self.transport
        started = time.perf_counter()

        def fire(phase: str) -> None:
            if fault_hook is not None:
                fault_hook(phase)

        drained: List[int] = []
        try:
            for slot in sources:
                transport.drain(slot, force=force)
                drained.append(slot)
            fire("drained")
            states = [transport.snapshot(slot) for slot in sources]
            fire("synced")
            manifest, children, migrated = carve(states)
            specs = {
                slot: table.spec_of(manifest["slots"][slot])
                for slot in children
            }
            for slot, state in children.items():
                write_shard_files(specs[slot], state, table.digest)
            fire("carved")
            table.commit(manifest)
        except BaseException:
            for slot in drained:
                transport.resume(slot)
            raise
        # --- committed: the manifest IS the new truth; roll forward -------
        hook_errors: List[BaseException] = []

        def fire_forward(phase: str) -> None:
            try:
                fire(phase)
            except BaseException as exc:  # noqa: BLE001 - crash injection
                hook_errors.append(exc)

        fire_forward("committed")
        # Exactly one source survives either action (the split slot's left
        # half, the merge destination); it restarts last.
        (heir,) = [slot for slot in sources if slot in specs]
        for slot in specs:
            if slot != heir:
                transport.start(specs[slot])
        table.install(manifest)
        self._g_epoch.set(table.epoch)
        for slot in sources:
            if slot != heir:
                transport.retire(slot)
        transport.start(specs[heir])
        fire_forward("swapped")
        self._c_reshard.labels(action=action).inc()
        self._c_migrated.inc(migrated)
        self._h_reshard_s.labels(action=action).observe(
            time.perf_counter() - started
        )
        if hook_errors:
            raise hook_errors[0]
