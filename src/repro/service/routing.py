"""The routing table: who owns which cluster, ride id and file — and since when.

:class:`RoutingTable` alone owns what turns an operation into a slot,
whatever transport the slot runs on:

* the epoch-versioned cluster → slot :class:`~repro.service.sharding.ShardMap`;
* the ride-id **lane** tables.  Slot *k* allocates ids from lane
  ``slot_lane[k]`` modulo ``lane_modulus`` (``ReshardConfig.max_shards``,
  fixed for life; a static service uses its shard count), so ids are
  globally unique and encode their home; ``lane_owner`` maps a lane to the
  slot serving it today.  A split hands the new slot the next unissued lane
  (the lane budget bounds lifetime splits); a merge parks the source's lane
  on the destination — lanes are never recycled;
* ``ride_homes`` (rides a split moved off their lane's slot) and
  ``redirect`` (merged-away slot → absorbing slot; chains are followed, so
  a slot id stays a valid routing handle forever);
* the per-slot file names and **the** ``topology.json`` reader/writer: the
  manifest is the durable form of exactly this table, and :meth:`install`
  is one code path for a restart and for a live swap, so every swap
  validates what a crash would depend on.

The reshard machine never edits the live tables: it derives a *draft*
manifest, commits it, installs it.  Readers take no lock; mid-install they
may see any mix of old and new tables, which is safe because a mix can only
route to a slot parked for the reshard (the op waits, then re-resolves) or
to a child that is already live with the carved state.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.request import RideRequest
from ..discretization import DiscretizedRegion, region_digest
from ..durability import read_topology, topology_path, write_topology
from ..exceptions import ConfigurationError, ReshardError
from ..geo import GeoPoint
from .reshard import ReshardConfig
from .sharding import ShardMap
from .stack import ShardSpec

#: ``(slot, generation) -> (wal_name, ckpt_name)`` relative to the service
#: directory; ``generation=None`` names a slot's never-resharded files.
#: File *placement* is the transport's (flat files vs per-shard directories);
#: everything else about the files is the table's.
Layout = Callable[[int, Optional[int]], Tuple[str, str]]


class RoutingTable:
    """Cluster, ride-id and file ownership of one sharded service."""

    def __init__(
        self,
        region: DiscretizedRegion,
        n_shards: int,
        *,
        layout: Layout,
        directory: Optional[str] = None,
        reshard: Optional[ReshardConfig] = None,
    ):
        self.region = region
        self.shard_map = ShardMap(region, n_shards)
        self.reshard = reshard
        self.directory = directory
        self.layout = layout
        self.digest = region_digest(region) if directory is not None else ""
        n = self.shard_map.n_shards
        if reshard is not None:
            if directory is None:
                raise ConfigurationError(
                    "elastic resharding requires durability: splits carve "
                    "the shard's checkpoint + WAL (thread mode: pass "
                    "durability=DurabilityConfig(...))"
                )
            if reshard.max_shards < n:
                raise ConfigurationError(
                    f"ReshardConfig.max_shards={reshard.max_shards} is below "
                    f"the initial shard count {n}"
                )
        self.lane_modulus = reshard.max_shards if reshard is not None else n
        self.slot_lane: List[int] = list(range(n))
        # Lanes >= n are unissued: no ride id can live there yet, so their
        # owner entry is a don't-care placeholder.
        self.lane_owner: List[int] = [
            lane if lane < n else 0 for lane in range(self.lane_modulus)
        ]
        self.next_lane = n
        self.redirect: Dict[int, int] = {}
        self.ride_homes: Dict[int, int] = {}
        #: Resharded slots' generation-suffixed files; others use the layout.
        self.files: Dict[int, Tuple[str, str]] = {}
        self._active: List[int] = list(range(n))
        manifest = None
        if directory is not None:
            manifest = read_topology(
                topology_path(directory), expected_digest=self.digest
            )
        if manifest is not None:
            if reshard is None:
                raise ConfigurationError(
                    f"{directory} holds a reshard topology manifest (epoch "
                    f"{manifest.get('epoch')}); reopen the service with "
                    f"reshard=ReshardConfig(max_shards="
                    f"{manifest.get('lane_modulus')})"
                )
            if int(manifest["lane_modulus"]) != self.lane_modulus:
                raise ConfigurationError(
                    f"ReshardConfig.max_shards={self.lane_modulus} differs "
                    f"from the committed lane modulus "
                    f"{manifest['lane_modulus']}; lanes are fixed for the "
                    "service's lifetime"
                )
            self.install(manifest)

    # ------------------------------------------------------------------
    # Resolution (lock-free readers)
    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        """Slots ever created (active + merged away)."""
        return len(self.slot_lane)

    @property
    def epoch(self) -> int:
        return self.shard_map.epoch

    def active_slots(self) -> List[int]:
        """Slots serving traffic today, ascending (do not mutate)."""
        return self._active

    def resolve(self, slot: int) -> int:
        """Follow merge redirects to the slot that serves this id today."""
        redirect = self.redirect
        while slot in redirect:
            slot = redirect[slot]
        return slot

    def shard_of_ride(self, ride_id: int) -> int:
        """A ride's home slot, in three steps: the migration table (rides a
        split moved off their lane's slot), then the lane-owner table
        (``lane = (ride_id - 1) % lane_modulus``), then merge redirects."""
        home = self.ride_homes.get(ride_id)
        if home is None:
            home = self.lane_owner[(ride_id - 1) % self.lane_modulus]
        return self.resolve(home)

    def slot_of_point(self, point: GeoPoint) -> int:
        """The slot owning a point's cluster (a new ride's home)."""
        return self.resolve(self.shard_map.shard_of_point(point))

    def shards_for_request(self, request: RideRequest,
                           fanout_radius_m: float) -> List[int]:
        """Slots a local fan-out search consults, ascending."""
        raw = self.shard_map.shards_for_request(request, fanout_radius_m)
        if not self.redirect:
            return raw
        # The map's hash fallback (uncovered points) can name a merged-away
        # slot; follow redirects and dedupe, preserving order.
        resolved: List[int] = []
        for slot in raw:
            slot = self.resolve(slot)
            if slot not in resolved:
                resolved.append(slot)
        return resolved

    # ------------------------------------------------------------------
    # Slot entries, specs and the manifest
    # ------------------------------------------------------------------
    def entry(self, slot: int) -> Dict[str, Any]:
        """One slot's manifest entry."""
        entry: Dict[str, Any] = {
            "slot": slot,
            "active": slot not in self.redirect,
            "lane": self.slot_lane[slot],
        }
        if entry["active"] and self.directory is not None:
            entry["wal"], entry["ckpt"] = (
                self.files.get(slot) or self.layout(slot, None)
            )
        return entry

    def spec_of(self, entry: Dict[str, Any]) -> ShardSpec:
        """The shard a manifest entry describes (paths made absolute)."""
        wal = ckpt = None
        if self.directory is not None:
            wal = os.path.join(self.directory, entry["wal"])
            ckpt = os.path.join(self.directory, entry["ckpt"])
        return ShardSpec(
            slot=int(entry["slot"]),
            ride_id_start=int(entry["lane"]) + 1,
            ride_id_step=self.lane_modulus,
            wal_path=wal,
            ckpt_path=ckpt,
        )

    def specs(self) -> List[Optional[ShardSpec]]:
        """Every slot's spec, indexed by slot (``None`` = merged away)."""
        return [
            self.spec_of(self.entry(slot)) if slot not in self.redirect
            else None
            for slot in range(self.n_slots)
        ]

    def manifest(self) -> Dict[str, Any]:
        """The live tables as a manifest payload (a fresh, editable copy)."""
        return {
            "epoch": self.epoch,
            "lane_modulus": self.lane_modulus,
            "region_digest": self.digest,
            "slots": [self.entry(slot) for slot in range(self.n_slots)],
            "assignment": self.shard_map.assignment(),
            "lane_owner": list(self.lane_owner),
            "next_lane": self.next_lane,
            "redirect": {str(s): d for s, d in self.redirect.items()},
            "ride_homes": {str(r): s for r, s in self.ride_homes.items()},
        }

    def commit(self, manifest: Dict[str, Any]) -> None:
        """Atomically replace ``topology.json``: THE commit point.  Before
        it a crash recovers the old topology from the old files; after it,
        the new topology from the new files."""
        write_topology(topology_path(self.directory), manifest)

    def install(self, manifest: Dict[str, Any]) -> None:
        """Adopt a committed manifest (restart, or the live half of a swap)."""
        entries = sorted(manifest["slots"], key=lambda e: int(e["slot"]))
        for index, entry in enumerate(entries):
            if int(entry["slot"]) != index:
                raise ConfigurationError(
                    f"topology manifest slot table has a gap at slot {index}"
                )
        self.slot_lane = [int(entry.get("lane", 0)) for entry in entries]
        self.lane_owner = [int(slot) for slot in manifest["lane_owner"]]
        self.next_lane = int(manifest["next_lane"])
        self.ride_homes = {
            int(ride_id): int(slot)
            for ride_id, slot in manifest.get("ride_homes", {}).items()
        }
        self.files = {
            int(entry["slot"]): (entry["wal"], entry["ckpt"])
            for entry in entries
            if entry.get("active") and "wal" in entry
        }
        self.redirect = {
            int(src): int(dst)
            for src, dst in manifest.get("redirect", {}).items()
        }
        self._active = [
            int(entry["slot"]) for entry in entries if entry.get("active")
        ]
        self.shard_map.restore(
            [int(slot) for slot in manifest["assignment"]],
            len(entries),
            int(manifest["epoch"]),
        )

    # ------------------------------------------------------------------
    # Reshard drafts (derive, never install)
    # ------------------------------------------------------------------
    def _active_operand(self, shard_id: int) -> int:
        if not 0 <= shard_id < self.n_slots:
            raise ReshardError(f"slot {shard_id} does not exist")
        return self.resolve(shard_id)

    def check_split(self, shard_id: int) -> int:
        """The live slot a split of ``shard_id`` would carve, or a refusal."""
        slot = self._active_operand(shard_id)
        if self.next_lane >= self.lane_modulus:
            raise ReshardError(
                f"ride-id lane budget exhausted: all {self.lane_modulus} "
                "lanes (= ReshardConfig.max_shards) have been issued; "
                "further splits need a fresh directory with a larger "
                "max_shards"
            )
        return slot

    def check_merge(self, dst_id: int, src_id: int) -> Tuple[int, int]:
        """The live ``(dst, src)`` slots of a merge, or a refusal."""
        dst, src = self._active_operand(dst_id), self._active_operand(src_id)
        if dst == src:
            raise ReshardError(
                f"merge of slot {src_id} into {dst_id} resolves to the "
                f"same live slot {dst}"
            )
        return dst, src

    def _draft(self, assignment: List[int]) -> Dict[str, Any]:
        manifest = self.manifest()
        manifest["epoch"] = self.epoch + 1
        manifest["assignment"] = assignment
        return manifest

    def _next_generation(self, manifest: Dict[str, Any], slot: int) -> None:
        """Point a draft's slot entry at its next-generation files: children
        are always written under new names, so the old generation's files
        stay intact until the manifest commit supersedes them."""
        entry = manifest["slots"][slot]
        entry["wal"], entry["ckpt"] = self.layout(slot, manifest["epoch"])

    def draft_split(self, slot: int,
                    weights: Dict[int, float]) -> Tuple[Dict[str, Any], int]:
        """Manifest of the topology after splitting ``slot`` at the cluster
        boundary that best balances ``weights``; returns it with the new
        (right-hand) slot id.  The caller adds the carved rides' new homes."""
        new_slot, lane = self.n_slots, self.next_lane
        assignment, _moved = self.shard_map.split_assignment(
            slot, new_slot, weights=weights
        )
        manifest = self._draft(assignment)
        manifest["slots"].append(
            {"slot": new_slot, "active": True, "lane": lane}
        )
        for child in (slot, new_slot):
            self._next_generation(manifest, child)
        manifest["lane_owner"][lane] = new_slot
        manifest["next_lane"] = lane + 1
        return manifest, new_slot

    def draft_merge(self, dst: int, src: int) -> Dict[str, Any]:
        """Manifest of the topology after folding ``src`` into ``dst``: the
        source slot retires behind a redirect and its lane is parked on the
        destination, so its rides keep resolving correctly forever."""
        manifest = self._draft(self.shard_map.merge_assignment(dst, src))
        self._next_generation(manifest, dst)
        manifest["slots"][src] = {
            "slot": src, "active": False, "lane": self.slot_lane[src],
        }
        manifest["lane_owner"][self.slot_lane[src]] = dst
        manifest["redirect"][str(src)] = dst
        manifest["ride_homes"] = {
            ride_id: (dst if home == src else home)
            for ride_id, home in manifest["ride_homes"].items()
        }
        return manifest
