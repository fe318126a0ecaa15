"""Reference implementation of the flat search read path.

``_ClusterSlab.rebuild`` / ``window``, ``flat_search_rides`` and
``_flat_filter`` exactly as they stood before the read path moved onto the
index-wide row arena: five sorted views and a (cluster, ETA-slice) bucket
hash per slab, four ``searchsorted`` calls per window, ETAs and rows carried
separately through the destination probe, ten slab columns re-gathered per
option, ranking inside the filter and a re-sort in ``rank_merge``.  The
bodies are verbatim; only the plumbing around them is new — a
:class:`ReferenceSlab` reads the live slab's storage (``n`` / ``rids`` /
``fdata`` / ``idata``, which are arena views today) and keeps the old sorted
views beside it, and :class:`ReferenceIndex` is the ``window`` / ``slab`` /
``slice_s`` surface the old kernel called.  Tests require the production
kernel to return ``==`` result lists, so none of this may be "improved".

The reference cannot see the live slabs' writes: call
:meth:`ReferenceIndex.invalidate` after every mutation of the engine.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.index.flat_index import (
    F_DETOUR,
    F_ETA,
    F_SD_LEN,
    F_SP_LEN,
    I_SD_A,
    I_SD_B,
    I_SEG_E,
    I_SEG_L,
    I_SP_A,
    I_SP_B,
    FlatSearchIndex,
)

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_IDX = np.empty(0, dtype=np.intp)

#: ``FlatSearchIndex.DEFAULT_SLICE_S`` as it was.
SLICE_S = 600.0


class ReferenceSlab:
    """The old lazy sorted views over one live slab's storage."""

    def __init__(self, live):
        self.live = live
        self.dirty = True
        self.rid_order = _EMPTY_IDX
        self.rid_sorted = _EMPTY_I64
        self.eta_order = _EMPTY_IDX
        self.eta_sorted = _EMPTY_F64
        self.erids = _EMPTY_I64
        self.slice_keys = _EMPTY_I64
        self.slice_starts = np.zeros(1, dtype=np.int64)

    n = property(lambda self: self.live.n)
    rids = property(lambda self: self.live.rids)
    fdata = property(lambda self: self.live.fdata)
    idata = property(lambda self: self.live.idata)

    def rebuild(self, slice_s: float) -> None:
        if not self.dirty:
            return
        n = self.n
        rids = self.rids[:n]
        self.rid_order = np.argsort(rids, kind="stable")
        self.rid_sorted = rids[self.rid_order]
        etas = self.fdata[:n, F_ETA]
        self.eta_order = np.argsort(etas, kind="stable")
        self.eta_sorted = etas[self.eta_order]
        self.erids = rids[self.eta_order]
        # The spatio-temporal hash: bucket b holds rows with
        # floor(eta / slice_s) == b, stored as contiguous ranges of the
        # ETA-sorted view (ETA order == bucket order).
        if n:
            slices = np.floor_divide(self.eta_sorted, slice_s).astype(np.int64)
            keys, starts = np.unique(slices, return_index=True)
            self.slice_keys = keys
            self.slice_starts = np.append(starts, n).astype(np.int64)
        else:
            self.slice_keys = _EMPTY_I64
            self.slice_starts = np.zeros(1, dtype=np.int64)
        self.dirty = False

    def window(
        self, start_s: float, end_s: float, slice_s: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ride ids, ETAs, storage rows) with ``start_s <= eta <= end_s``.

        Buckets overlapping ``[start_s, end_s]`` are shortlisted via the
        slice hash; only the two edge buckets need exact ETA refinement.
        Views into the ETA-sorted arrays — zero copies.
        """
        self.rebuild(slice_s)
        n = self.n
        if n == 0 or end_s < start_s:
            return _EMPTY_I64, _EMPTY_F64, _EMPTY_IDX
        lo_key = math.floor(start_s / slice_s)
        ki = int(np.searchsorted(self.slice_keys, lo_key, side="left"))
        lo = int(self.slice_starts[ki])
        if end_s == float("inf"):
            hi = n
        else:
            hi_key = math.floor(end_s / slice_s)
            kj = int(np.searchsorted(self.slice_keys, hi_key, side="right"))
            hi = int(self.slice_starts[kj])
        # Exact bounds within the edge buckets (interior buckets are fully
        # inside the window by construction of the slice keys).
        lo += int(np.searchsorted(self.eta_sorted[lo:hi], start_s, side="left"))
        if end_s != float("inf"):
            hi = lo + int(
                np.searchsorted(self.eta_sorted[lo:hi], end_s, side="right")
            )
        return self.erids[lo:hi], self.eta_sorted[lo:hi], self.eta_order[lo:hi]


class ReferenceIndex:
    """What the old kernel called on ``FlatSearchIndex``."""

    def __init__(self, flat: FlatSearchIndex, slice_s: float = SLICE_S):
        self.slice_s = float(slice_s)
        self._slabs = [ReferenceSlab(slab) for slab in flat._slabs]

    def invalidate(self) -> None:
        for slab in self._slabs:
            slab.dirty = True

    def window(
        self, cluster_id: int, start_s: float, end_s: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._slabs[cluster_id].window(start_s, end_s, self.slice_s)

    def slab(self, cluster_id: int) -> ReferenceSlab:
        slab = self._slabs[cluster_id]
        slab.rebuild(self.slice_s)
        return slab


def ref_flat_search_rides(
    engine,
    flat: ReferenceIndex,
    request,
    k: Optional[int],
    span,
) -> list:
    """Two-step XAR search over the flat core — identical results (values
    and rank order) to ``repro.core.search._search_legacy``.

    Same five stages, each entered exactly once per search; the per-object
    loops become numpy kernels:

    * **cluster_lookup** — per source cluster, the spatio-temporal hash
      shortlists the (cluster, ETA-slice) buckets overlapping the
      departure window; the two edge buckets refine to exact ETA bounds.
      Returns zero-copy views of the ETA-sorted slab.
    * **candidate_scan** — R1 = first-occurrence ``np.unique`` over the
      option-ordered concatenation (options ascend by walk distance, so
      first occurrence == the legacy best-walk winner under strict ``<``);
      the destination pass probes R1 against each destination slab's
      rid-sorted view (one vectorized ``searchsorted`` per cluster).
    * **feasibility_filter** — vectorized seat/walk/order/cluster/detour
      checks over gathered columns; the landmark-level splice estimate is
      computed with the same float64 operation order as the scalar code,
      so results are bit-identical.  The rare segment-order retry
      (latest drop-off segment before earliest pickup segment) falls back
      to the exact legacy scalar path.
    """
    from repro.core.search import _build_match, _splice_estimate

    region = engine.region
    with span.stage("snap"):
        source_options = region.walkable_clusters(
            request.source, request.walk_threshold_m
        )
        destination_options = (
            region.walkable_clusters(request.destination, request.walk_threshold_m)
            if source_options
            else []
        )
    if not source_options or not destination_options:
        return []

    window_start = request.window_start_s

    with span.stage("cluster_lookup"):
        gathers = []
        for oi, option in enumerate(source_options):
            rids, etas, rows = flat.window(
                option.cluster_id, window_start, request.window_end_s
            )
            if len(rids):
                gathers.append((oi, rids, etas, rows))

    with span.stage("candidate_scan"):
        n_src = 0
        if gathers:
            all_rids = np.concatenate([g[1] for g in gathers])
            all_etas = np.concatenate([g[2] for g in gathers])
            all_rows = np.concatenate([g[3] for g in gathers])
            all_opts = np.concatenate(
                [np.full(g[1].shape, g[0], dtype=np.intp) for g in gathers]
            )
            # First occurrence per ride id in option order == smallest walk
            # (walkable_clusters sorts options ascending by walk_m and the
            # legacy reduction only replaces on strictly smaller walk).
            src_rids, first = np.unique(all_rids, return_index=True)
            src_eta = all_etas[first]
            src_row = all_rows[first]
            src_opt = all_opts[first]
            n_src = len(src_rids)
        if n_src:
            # Destination pass: only R1 rides can survive the intersection,
            # so probe R1 against each destination slab's rid-sorted view.
            found = np.zeros(n_src, dtype=bool)
            dst_eta = np.zeros(n_src, dtype=np.float64)
            dst_row = np.zeros(n_src, dtype=np.intp)
            dst_opt = np.zeros(n_src, dtype=np.intp)
            for oi, option in enumerate(destination_options):
                if found.all():
                    # Later options can't win: first hit == smallest walk.
                    break
                slab = flat.slab(option.cluster_id)
                if slab.n == 0:
                    continue
                pos = np.searchsorted(slab.rid_sorted, src_rids)
                np.minimum(pos, slab.n - 1, out=pos)
                hit_idx = np.nonzero(slab.rid_sorted[pos] == src_rids)[0]
                if not len(hit_idx):
                    continue
                rows = slab.rid_order[pos[hit_idx]]
                etas = slab.fdata[rows, F_ETA]
                ok = etas >= window_start
                cand = hit_idx[ok]
                fresh = ~found[cand]
                upd = cand[fresh]
                if len(upd):
                    found[upd] = True
                    dst_eta[upd] = etas[ok][fresh]
                    dst_row[upd] = rows[ok][fresh]
                    dst_opt[upd] = oi

    if not n_src:
        return []

    with span.stage("feasibility_filter"):
        matches = _flat_filter(
            engine, flat, request, _build_match, _splice_estimate,
            source_options, destination_options,
            src_rids, src_eta, src_row, src_opt,
            found, dst_eta, dst_row, dst_opt, k,
        )

    with span.stage("rank_merge"):
        # _flat_filter already ranked and cut on scalar key arrays (ride_id
        # is unique per match, so the key is a total order and the lexsort
        # agrees with this tuple sort); re-sorting the survivors is a cheap
        # O(k) pass that keeps the stage contract explicit.
        matches.sort(key=lambda m: (m.total_walk_m, m.eta_pickup_s, m.ride_id))
        if k is not None:
            return matches[:k]
        return matches


def _flat_filter(
    engine,
    flat,
    request,
    _build_match,
    _splice_estimate,
    source_options,
    destination_options,
    src_rids,
    src_eta,
    src_row,
    src_opt,
    found,
    dst_eta,
    dst_row,
    dst_opt,
    k,
) -> list:
    """Vectorized R1 ∩ R2 feasibility over the precomputed slab columns.

    Returns the feasible matches already sorted by
    ``(total_walk_m, eta_pickup_s, ride_id)`` and cut to ``k`` — ranking on
    the scalar key arrays means only the surviving ``k`` matches are ever
    constructed.
    """
    region = engine.region
    idx = np.nonzero(found)[0]
    if not len(idx):
        return []
    rids = src_rids[idx]
    e_src = src_eta[idx]
    e_dst = dst_eta[idx]
    so = src_opt[idx]
    do = dst_opt[idx]
    rs = src_row[idx]
    rd = dst_row[idx]

    src_walk = np.array([o.walk_m for o in source_options], dtype=np.float64)
    dst_walk = np.array([o.walk_m for o in destination_options], dtype=np.float64)
    src_cl = np.array([o.cluster_id for o in source_options], dtype=np.int64)
    dst_cl = np.array([o.cluster_id for o in destination_options], dtype=np.int64)

    keep = e_src < e_dst                         # pickup strictly before drop-off
    keep &= src_cl[so] != dst_cl[do]             # an actual ride leg exists
    keep &= (src_walk[so] + dst_walk[do]) <= request.walk_threshold_m

    # Seats and detour budget read *live* from the ride objects, exactly as
    # the legacy filter does — R1 ∩ R2 is small, so this Python loop is off
    # the hot path, and a seat poked to zero between search calls (without
    # going through booking's reindex seam) is honoured immediately.  Rows
    # already dead to the vector checks above skip the dict lookups.
    keep_l = keep.tolist()
    limits_l = [0.0] * len(keep_l)
    rides = engine.rides
    entries = engine.ride_entries
    for t, rid in enumerate(rids.tolist()):
        if not keep_l[t]:
            continue
        ride = rides.get(rid)
        if ride is None or rid not in entries or ride.seats_available < 1:
            keep_l[t] = False
        else:
            limits_l[t] = ride.detour_limit_m
    keep = np.array(keep_l, dtype=bool)
    all_limits = np.array(limits_l, dtype=np.float64)
    if not keep.any():
        return []

    sel = np.nonzero(keep)[0]
    rids, e_src, e_dst = rids[sel], e_src[sel], e_dst[sel]
    so, do, rs, rd = so[sel], do[sel], rs[sel], rd[sel]
    limits = all_limits[sel]

    # Gather the precomputed per-(cluster, ride) feasibility columns,
    # grouped by option so each group is one fancy-indexed slab read.
    n = len(rids)
    d_src = np.zeros(n, dtype=np.float64)
    d_dst = np.zeros(n, dtype=np.float64)
    seg_e = np.full(n, -1, dtype=np.int64)
    seg_l = np.full(n, -1, dtype=np.int64)
    sp_a = np.zeros(n, dtype=np.int64)
    sp_b = np.zeros(n, dtype=np.int64)
    sd_a = np.zeros(n, dtype=np.int64)
    sd_b = np.zeros(n, dtype=np.int64)
    sp_len = np.zeros(n, dtype=np.float64)
    sd_len = np.zeros(n, dtype=np.float64)
    for oi in np.unique(so):
        mask = so == oi
        slab = flat.slab(source_options[oi].cluster_id)
        rows = rs[mask]
        d_src[mask] = slab.fdata[rows, F_DETOUR]
        sp_len[mask] = slab.fdata[rows, F_SP_LEN]
        seg_e[mask] = slab.idata[rows, I_SEG_E]
        sp_a[mask] = slab.idata[rows, I_SP_A]
        sp_b[mask] = slab.idata[rows, I_SP_B]
    for oi in np.unique(do):
        mask = do == oi
        slab = flat.slab(destination_options[oi].cluster_id)
        rows = rd[mask]
        d_dst[mask] = slab.fdata[rows, F_DETOUR]
        sd_len[mask] = slab.fdata[rows, F_SD_LEN]
        seg_l[mask] = slab.idata[rows, I_SEG_L]
        sd_a[mask] = slab.idata[rows, I_SD_A]
        sd_b[mask] = slab.idata[rows, I_SD_B]

    valid = (seg_e >= 0) & (seg_l >= 0)          # segment_for found a segment
    if not valid.any():
        return []
    sel2 = np.nonzero(valid)[0]
    if len(sel2) != n:
        rids, e_src, e_dst, so, do = (
            rids[sel2], e_src[sel2], e_dst[sel2], so[sel2], do[sel2]
        )
        limits, d_src, d_dst = limits[sel2], d_src[sel2], d_dst[sel2]
        seg_e, seg_l = seg_e[sel2], seg_l[sel2]
        sp_a, sp_b, sd_a, sd_b = sp_a[sel2], sp_b[sel2], sd_a[sel2], sd_b[sel2]
        sp_len, sd_len = sp_len[sel2], sd_len[sel2]
        n = len(sel2)

    coarse = d_src + d_dst
    # Rare: the latest drop-off segment precedes the earliest pickup
    # segment; those rows retry with at_least through the exact scalar path.
    fallback = seg_l < seg_e

    # Landmark-level splice estimate — same float64 operation order as
    # _splice_estimate, so the values are bit-identical.
    lm_ok = (sp_a >= 0) & (sp_b >= 0) & (sd_a >= 0) & (sd_b >= 0)
    # Mask invalid landmark ids to 0 BEFORE the gather (negative indices
    # would silently wrap); lm_ok discards those rows afterwards.
    ia = np.where(lm_ok, sp_a, 0)
    ib = np.where(lm_ok, sp_b, 0)
    ic = np.where(lm_ok, sd_a, 0)
    ie = np.where(lm_ok, sd_b, 0)
    src_lm = np.array([o.landmark_id for o in source_options], dtype=np.int64)
    dst_lm = np.array([o.landmark_id for o in destination_options], dtype=np.int64)
    p = src_lm[so]
    d = dst_lm[do]
    D = region.landmark_matrix.values
    est = np.where(
        seg_e == seg_l,
        D[ia, p] + D[p, d] + D[d, ib] - sp_len,
        (D[ia, p] + D[p, ib] - sp_len) + (D[ic, d] + D[d, ie] - sd_len),
    )
    bad = np.isinf(est) | np.isnan(est)
    est = np.maximum(0.0, est)
    detour = np.where(lm_ok & ~bad, est, coarse)
    final = (detour <= limits) & ~fallback

    request_id = request.request_id
    # Batch-convert to Python scalars once (C speed) so the build loop
    # touches no numpy scalars; _build_match fills the instance dict
    # directly instead of paying the frozen-dataclass per-field setattr.
    rid_l = rids.tolist()
    es_l = e_src.tolist()
    ed_l = e_dst.tolist()
    so_l = so.tolist()
    do_l = do.tolist()
    det_l = detour.tolist()
    walk_tot = src_walk[so] + dst_walk[do]
    walk_l = walk_tot.tolist()

    # Segment-order retries go through the exact legacy scalar path; they
    # are rare, so building them eagerly is fine.
    fb_matches: list = []
    fb_keys: list = []
    if fallback.any():
        for j in np.nonzero(fallback)[0].tolist():
            ride_id = rid_l[j]
            ride = engine.rides.get(ride_id)
            entry = engine.ride_entries.get(ride_id)
            if ride is None or entry is None:
                continue
            o_s = source_options[so_l[j]]
            o_d = destination_options[do_l[j]]
            segment_pickup = int(seg_e[j])
            segment_dropoff = entry.segment_for(
                o_d.cluster_id, earliest=False, at_least=segment_pickup
            )
            if segment_dropoff is None:
                continue
            det = _splice_estimate(
                region, entry, segment_pickup, segment_dropoff,
                o_s.landmark_id, o_d.landmark_id,
            )
            if det is None:
                det = float(coarse[j])
            if det > ride.detour_limit_m:
                continue
            fb_matches.append(
                _build_match(
                    ride_id,
                    request_id,
                    o_s.cluster_id,
                    o_s.landmark_id,
                    o_s.walk_m,
                    o_d.cluster_id,
                    o_d.landmark_id,
                    o_d.walk_m,
                    es_l[j],
                    ed_l[j],
                    det,
                )
            )
            fb_keys.append((walk_l[j], es_l[j], ride_id))

    # Rank + top-k cut on the scalar key arrays so only the k survivors
    # are ever constructed.  Each ride id appears at most once (R1 is a
    # np.unique over rides), so (walk, eta, ride_id) is a total order and
    # np.lexsort agrees exactly with the legacy tuple sort.
    vec = np.nonzero(final)[0]
    n_vec = len(vec)
    w_keys = walk_tot[vec]
    e_keys = e_src[vec]
    r_keys = rids[vec]
    if fb_keys:
        w_keys = np.concatenate(
            [w_keys, np.array([key[0] for key in fb_keys], dtype=np.float64)]
        )
        e_keys = np.concatenate(
            [e_keys, np.array([key[1] for key in fb_keys], dtype=np.float64)]
        )
        r_keys = np.concatenate(
            [r_keys, np.array([key[2] for key in fb_keys], dtype=np.int64)]
        )
    order = np.lexsort((r_keys, e_keys, w_keys))
    if k is not None:
        order = order[:k]

    matches = []
    vec_l = vec.tolist()
    for t in order.tolist():
        if t >= n_vec:
            matches.append(fb_matches[t - n_vec])
            continue
        j = vec_l[t]
        o_s = source_options[so_l[j]]
        o_d = destination_options[do_l[j]]
        matches.append(
            _build_match(
                rid_l[j],
                request_id,
                o_s.cluster_id,
                o_s.landmark_id,
                o_s.walk_m,
                o_d.cluster_id,
                o_d.landmark_id,
                o_d.walk_m,
                es_l[j],
                ed_l[j],
                det_l[j],
            )
        )
    return matches
