"""Spatial partitioning of the cluster space into shards.

In the spirit of *When Hashing Met Matching* (Dutta, PAPERS.md), the city's
cluster space is partitioned so each shard owns a contiguous slice of it:
clusters are ordered by the position of their center landmark (longitude
strips, latitude-then-id tie-broken) and cut into ``n_shards`` slices of
equal cluster count.  The partition is a pure function of the region and the
shard count — every process that builds a :class:`ShardMap` over the same
region agrees on cluster ownership, which is what makes sharded runs
reproducible.

The map is no longer frozen at construction: elastic resharding
(:mod:`repro.service.reshard`) evolves it through **epoch-versioned swaps**.
Every installed assignment carries an epoch counter; :meth:`ShardMap.swap`
atomically replaces the cluster → shard table and bumps the epoch, so an
in-flight operation that resolved routing under an older epoch can detect
the race (compare epochs, or simply re-resolve) instead of landing on a
worker that no longer owns the cluster.  :meth:`split_assignment` and
:meth:`merge_assignment` derive candidate tables — a load-weighted cut of
one shard's strip-ordered cluster range, or the union of two shards — but
*install nothing*: the router owns the commit point because the swap must
be coordinated with WAL carving and the shards' restart.

Routing rules derived from the partition:

* a **ride** is homed on the shard owning its source's cluster (fallback: a
  deterministic hash of the source's grid cell);
* a **search** fans out to every shard owning a walkable cluster of the
  request's source or destination, optionally expanded to *neighboring*
  shards whose clusters lie within ``fanout_radius_m`` of those walkable
  clusters (rides originating farther away but passing through are the
  recall cost of local fan-out; ``fanout="all"`` restores full recall).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.request import RideRequest
from ..discretization import DiscretizedRegion
from ..exceptions import ReshardError
from ..geo import GeoPoint


class ShardMap:
    """Deterministic cluster → shard assignment over one region."""

    def __init__(self, region: DiscretizedRegion, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        self.region = region
        self.n_shards = min(n_shards, max(1, region.n_clusters))
        #: Routing-table version.  Bumped by every :meth:`swap`; readers that
        #: captured routing decisions under an older epoch must re-resolve.
        self.epoch = 0
        self._cluster_shard = self._partition()
        #: (cluster_id, radius) -> shards owning any cluster within radius.
        #: Routers use one fixed radius, so this fills once per cluster and
        #: turns the expansion into a dict hit on the search hot path.
        self._neighbor_cache: dict = {}

    def _strip_key(self, cluster) -> Tuple[float, float, int]:
        center = self.region.landmarks[cluster.center_landmark].position
        return (center.lon, center.lat, cluster.cluster_id)

    def _partition(self) -> List[int]:
        """Contiguous longitude strips balanced by cluster count.

        Strips beat 2-D tiles empirically: tile-local requests cluster near
        the city center where through-traffic from every tile converges, so
        quadrant engines keep most of the pass-through candidates that
        strips exclude.

        Clusters whose center landmarks share an *identical* (lon, lat)
        position are kept on one shard even when the equal-count cut falls
        between them.  Their strip order is decided only by the cluster-id
        tiebreak — an artifact of construction order, not geometry — so a
        cut inside such a run would make ownership depend on float-compare
        order and could flip across an epoch swap.  The whole run goes to
        the shard of its first member (near-always a no-op: real regions
        have distinct landmark positions).
        """
        region = self.region
        ordered = sorted(region.clusters, key=self._strip_key)
        assignment = [0] * region.n_clusters
        n = len(ordered)
        for rank, cluster in enumerate(ordered):
            # Equal-count slices: shard = floor(rank * n_shards / n).
            assignment[cluster.cluster_id] = min(
                self.n_shards - 1, rank * self.n_shards // max(1, n)
            )
        i = 0
        while i < n:
            j = i + 1
            first = self._strip_key(ordered[i])[:2]
            while j < n and self._strip_key(ordered[j])[:2] == first:
                j += 1
            if j - i > 1:
                owner = assignment[ordered[i].cluster_id]
                for cluster in ordered[i + 1:j]:
                    assignment[cluster.cluster_id] = owner
            i = j
        return assignment

    # ------------------------------------------------------------------
    # Ownership lookups
    # ------------------------------------------------------------------
    def shard_of_cluster(self, cluster_id: int) -> int:
        return self._cluster_shard[cluster_id]

    def clusters_of_shard(self, shard_id: int) -> Tuple[int, ...]:
        return tuple(
            cluster_id
            for cluster_id, shard in enumerate(self._cluster_shard)
            if shard == shard_id
        )

    def shard_of_point(self, point: GeoPoint) -> int:
        """Home shard of a point: its cluster's owner.

        Uncovered points (no associated landmark, no walkable cluster) fall
        back to a deterministic hash of their grid cell so routing never
        fails — the shard engine itself decides whether to serve them.
        """
        cluster_id = self.region.cluster_of_point(point)
        if cluster_id is None:
            options = self.region.walkable_clusters(point)
            if options:
                cluster_id = options[0].cluster_id
        if cluster_id is not None:
            return self._cluster_shard[cluster_id]
        cx, cy = self.region.cell_of(point)
        return (cx * 31 + cy * 17) % self.n_shards

    # ------------------------------------------------------------------
    # Epoch-versioned swaps (elastic resharding)
    # ------------------------------------------------------------------
    def assignment(self) -> List[int]:
        """A copy of the live cluster → shard table."""
        return list(self._cluster_shard)

    def swap(self, assignment: Sequence[int], n_shards: int) -> int:
        """Atomically install a new routing table; returns the new epoch.

        The caller (the router's reshard path, under its failover lock) has
        already prepared the target topology — carved WALs, spawned
        workers — so the swap itself is just the table flip plus the epoch
        bump.  Derived caches (neighbor expansion) are invalidated.
        """
        if len(assignment) != self.region.n_clusters:
            raise ReshardError(
                f"assignment covers {len(assignment)} clusters, region has "
                f"{self.region.n_clusters}"
            )
        if n_shards < 1:
            raise ReshardError(f"n_shards must be >= 1, got {n_shards!r}")
        for cluster_id, shard in enumerate(assignment):
            if not 0 <= shard < n_shards:
                raise ReshardError(
                    f"cluster {cluster_id} assigned to shard {shard}, "
                    f"valid range is [0, {n_shards})"
                )
        self._cluster_shard = list(assignment)
        self.n_shards = n_shards
        self._neighbor_cache.clear()
        self.epoch += 1
        return self.epoch

    def restore(self, assignment: Sequence[int], n_shards: int,
                epoch: int) -> None:
        """Install a recovered topology (restart from a manifest)."""
        self.swap(assignment, n_shards)
        self.epoch = epoch

    def split_assignment(
        self,
        shard_id: int,
        new_shard_id: int,
        weights: Optional[Dict[int, float]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Carve ``shard_id``'s cluster range at a load-weighted boundary.

        The shard's clusters are walked in strip order and cut at the
        position that best balances the two halves' total weight (default
        weight 1 per cluster → an equal-count cut; the router passes live
        ride counts so the cut tracks *load*, not geometry).  The cut never
        falls inside a run of identically-positioned centers — the same
        stability rule :meth:`_partition` enforces.  The left half keeps
        ``shard_id``; the right half moves to ``new_shard_id``.

        Returns ``(new_assignment, moved_cluster_ids)`` without installing
        anything.
        """
        owned = [
            cluster
            for cluster in self.region.clusters
            if self._cluster_shard[cluster.cluster_id] == shard_id
        ]
        owned.sort(key=self._strip_key)
        if len(owned) < 2:
            raise ReshardError(
                f"shard {shard_id} owns {len(owned)} cluster(s); "
                "a split needs at least 2"
            )
        weight = weights or {}
        totals = [1.0 + float(weight.get(c.cluster_id, 0.0)) for c in owned]
        total = sum(totals)
        best_cut, best_skew = None, None
        left = 0.0
        for cut in range(1, len(owned)):
            left += totals[cut - 1]
            if (self._strip_key(owned[cut - 1])[:2]
                    == self._strip_key(owned[cut])[:2]):
                continue  # never cut inside a tied-position run
            skew = abs(left - (total - left))
            if best_skew is None or skew < best_skew:
                best_cut, best_skew = cut, skew
        if best_cut is None:
            raise ReshardError(
                f"shard {shard_id}: every cut falls inside a run of "
                "identically-positioned cluster centers; cannot split"
            )
        assignment = list(self._cluster_shard)
        moved = [c.cluster_id for c in owned[best_cut:]]
        for cluster_id in moved:
            assignment[cluster_id] = new_shard_id
        return assignment, moved

    def merge_assignment(self, dst: int, src: int) -> List[int]:
        """Fold ``src``'s clusters into ``dst`` (returns, does not install)."""
        if dst == src:
            raise ReshardError(f"cannot merge shard {src} into itself")
        assignment = list(self._cluster_shard)
        moved = 0
        for cluster_id, shard in enumerate(assignment):
            if shard == src:
                assignment[cluster_id] = dst
                moved += 1
        if moved == 0:
            raise ReshardError(f"shard {src} owns no clusters; nothing to merge")
        return assignment

    def adjacent_pairs(self) -> List[Tuple[int, int]]:
        """Shard pairs adjacent in strip order (merge candidates).

        Walking the global strip order, every boundary between consecutive
        clusters with different owners names an adjacent pair.  Deduplicated,
        in first-encountered order.
        """
        ordered = sorted(self.region.clusters, key=self._strip_key)
        pairs: List[Tuple[int, int]] = []
        seen = set()
        for previous, current in zip(ordered, ordered[1:]):
            a = self._cluster_shard[previous.cluster_id]
            b = self._cluster_shard[current.cluster_id]
            if a != b and (a, b) not in seen:
                seen.add((a, b))
                pairs.append((a, b))
        return pairs

    # ------------------------------------------------------------------
    # Search fan-out
    # ------------------------------------------------------------------
    def shards_for_request(
        self,
        request: RideRequest,
        fanout_radius_m: float = 0.0,
    ) -> List[int]:
        """Shards a search must consult, ascending (deterministic order).

        The walkable clusters of the request's source and destination name
        the clusters where a matching ride must be indexed; their owners are
        the *home* shards.  ``fanout_radius_m`` expands the set with
        neighboring shards owning any cluster within that driving distance
        of the walkable clusters (cheap: reads the precomputed cluster
        distance matrix).  Falls back to the point's home shard when the
        request is entirely uncovered.
        """
        region = self.region
        clusters = set()
        for point in (request.source, request.destination):
            for option in region.walkable_clusters(point, request.walk_threshold_m):
                clusters.add(option.cluster_id)
        if not clusters:
            return [self.shard_of_point(request.source)]
        shards = {self._cluster_shard[cluster_id] for cluster_id in clusters}
        if fanout_radius_m > 0:
            for cluster_id in clusters:
                shards.update(self._neighbor_shards(cluster_id, fanout_radius_m))
        return sorted(shards)

    def _neighbor_shards(self, cluster_id: int, radius_m: float) -> frozenset:
        """Owners of all clusters within ``radius_m`` of one cluster, memoised."""
        key = (cluster_id, radius_m)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = frozenset(
                self._cluster_shard[neighbor]
                for neighbor, _distance in self.region.clusters_within(
                    cluster_id, radius_m
                )
            )
            self._neighbor_cache[key] = cached
        return cached

    def shard_sizes(self) -> List[int]:
        """Cluster count per shard (partition-balance diagnostic)."""
        sizes = [0] * self.n_shards
        for shard in self._cluster_shard:
            sizes[shard] += 1
        return sizes


def derive_seed(root_seed: int, shard_id: int) -> int:
    """Per-shard seed from a root seed: stable arithmetic, no str hashing."""
    return root_seed * 1_000_003 + shard_id + 1


def shard_local_requests(
    shard_map: ShardMap, requests: Sequence[RideRequest]
) -> List[RideRequest]:
    """Requests whose entire walkable footprint lives on a single shard.

    The shard-local slice of a workload is the regime where local fan-out
    loses no recall; the determinism tests replay it across shard counts.
    """
    local: List[RideRequest] = []
    for request in requests:
        shards = shard_map.shards_for_request(request)
        if len(shards) == 1:
            local.append(request)
    return local
