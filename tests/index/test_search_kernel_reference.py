"""The arena read path equals the reference kernel exactly.

``flat_search_rides`` over the index-wide row arena (global row ids, two
sorted views per slab, one gather per search, ranking in ``rank_merge``) is
compared against ``tests/reference_search_kernel.py`` — the kernel it
replaced, bucket hash and per-option gathers included — with ``==`` on whole
result lists: every field of every match, every rank, for k ∈ {None, 1, 10}.
Searches are interleaved with create / book / track / cancel / remove /
snapshot-restore, so slabs relocate and the arena regrows mid-run; a seat is
poked to zero behind the index's back; slab rows are doctored into the
segment-order fallback; and the window query itself is compared on empty,
inverted and open-ended windows.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

import repro.core.search as core_search
from repro.core import XAREngine
from repro.exceptions import XARError
from repro.index.flat_index import I_SEG_E, I_SEG_L
from repro.obs.trace import NULL_SPAN
from repro.resilience.snapshot import restore_ride, snapshot_ride
from repro.workloads import NYCWorkloadGenerator, trips_to_requests
from tests.reference_search_kernel import ReferenceIndex, ref_flat_search_rides

KS = (None, 1, 10)

#: Selected by ``pytest -m reference -k <seed>`` (CI's unpinned-seed run).
pytestmark = pytest.mark.reference

#: The tier-1 seeds, plus any the environment names: CI adds one derived
#: from its run number, so every run compares a new interleaving.
SEEDS = [11, 12, 13] + [
    int(seed) for seed in os.environ.get("XAR_KERNEL_SEEDS", "").split(",") if seed
]


def assert_same_answers(engine, ref, request):
    """Both kernels, every k; returns the full (k=None) list."""
    full = None
    for k in KS:
        got = engine.search(request, k)
        want = ref_flat_search_rides(engine, ref, request, k, NULL_SPAN)
        assert got == want, f"k={k}: {got} != {want}"
        if k is None:
            full = got
    return full


def assert_same_windows(flat, ref, start_s, end_s):
    """``window`` on every slab: same ride ids and ETAs in the same order,
    and the global rows are the reference's storage rows re-based."""
    for cluster_id, slab in enumerate(flat._slabs):
        rows, etas = flat.window(cluster_id, start_s, end_s)
        ref_rids, ref_etas, ref_rows = ref.window(cluster_id, start_s, end_s)
        assert flat._arena.rids[rows].tolist() == ref_rids.tolist()
        assert etas.tolist() == ref_etas.tolist()
        assert (rows - slab.base).tolist() == ref_rows.tolist()


class Layout:
    """Watches the arena between steps: a regrow swaps the arrays, a
    relocation moves one slab's base inside the same arrays."""

    def __init__(self, flat):
        self.flat = flat
        self.regrows = self.relocations = 0
        self._mark()

    def _mark(self):
        self._rids = self.flat._arena.rids
        self._bases = [slab.base for slab in self.flat._slabs]

    def observe(self):
        bases = [slab.base for slab in self.flat._slabs]
        if self.flat._arena.rids is not self._rids:
            self.regrows += 1
        elif bases != self._bases:
            self.relocations += 1
        self._mark()


def interleaved_run(region, city, seed, n_requests=330):
    """search (both kernels) → book or create, with ticks, cancellations,
    removals and snapshot-restores in between.  Returns what the later
    checks need: the engine, the reference, the layout watcher and the
    requests that matched."""
    rng = random.Random(seed)
    requests = trips_to_requests(
        NYCWorkloadGenerator(city, seed=seed).generate(
            n_requests, start_hour=7.0, end_hour=8.0
        )
    )
    engine = XAREngine(region)
    flat = engine.flat_index
    ref = ReferenceIndex(flat)
    layout = Layout(flat)
    bookings = []
    matched = []
    searched = 0
    last_tick = None
    for i, request in enumerate(requests):
        now = request.window_start_s
        if last_tick is None or now - last_tick >= 300.0:
            engine.track_all(now)
            last_tick = now
            ref.invalidate()
        full = assert_same_answers(engine, ref, request)
        searched += 1
        if full:
            matched.append(request)
        if searched > 1:
            layout.observe()  # only layout changes *between* searches count

        try:
            if full and rng.random() < 0.5:
                match = rng.choice(full[:3])
                engine.book(request, match)
                bookings.append((request.request_id, match.ride_id))
            else:
                engine.create_ride(request.source, request.destination, now)
            if i % 17 == 16 and bookings:
                engine.cancel_booking(*bookings.pop(rng.randrange(len(bookings))))
            if i % 23 == 22 and engine.rides:
                engine.remove_ride(rng.choice(sorted(engine.rides)))
            if i % 29 == 28 and engine.rides:
                ride_id = rng.choice(sorted(engine.rides))
                snapshot = snapshot_ride(engine, ride_id)
                engine.track_all(now + 120.0)
                last_tick = now + 120.0
                if ride_id in engine.rides:
                    restore_ride(engine, snapshot)
        except XARError:
            pass  # an infeasible booking / stale cancellation is a no-op
        ref.invalidate()

        if i % 40 == 39:
            assert_same_windows(flat, ref, now, now + 600.0)
            assert_same_windows(flat, ref, now, float("inf"))
            assert_same_windows(flat, ref, now + 600.0, now)  # inverted
            assert_same_windows(flat, ref, now + 1e7, now + 2e7)  # empty
            assert_same_windows(flat, ref, -1e12, float("inf"))  # everything
    flat.check_consistency(engine)
    return engine, ref, layout, matched


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_run_equals_reference(region, city, seed):
    engine, ref, layout, matched = interleaved_run(region, city, seed)
    assert len(matched) >= 30, "the run must actually match requests"
    assert layout.relocations >= 1, "no slab relocated between searches"
    assert layout.regrows >= 1, "the arena never regrew between searches"

    # A seat poked to zero between searches — no reindex seam involved —
    # disappears from both kernels' answers at once.
    poked = 0
    for request in reversed(matched):
        full = assert_same_answers(engine, ref, request)
        if not full:
            continue
        ride = engine.rides[full[0].ride_id]
        seats, ride.seats_available = ride.seats_available, 0
        try:
            without = assert_same_answers(engine, ref, request)
        finally:
            ride.seats_available = seats
        assert [m for m in full if m.ride_id != ride.ride_id] == without
        poked += 1
        if poked == 5:
            break
    assert poked


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_order_fallback_equals_reference(region, city, seed, monkeypatch):
    """Rows doctored so the latest drop-off segment precedes the earliest
    pickup segment: both kernels retry through the scalar path
    (``segment_for(at_least=...)`` + ``_splice_estimate``) and agree."""
    engine, ref, _layout, matched = interleaved_run(region, city, seed, 200)
    flat = engine.flat_index
    scalar_calls = []
    splice = core_search._splice_estimate
    monkeypatch.setattr(
        core_search, "_splice_estimate",
        lambda *args: scalar_calls.append(args) or splice(*args),
    )
    taken = 0
    for request in matched:
        for match in assert_same_answers(engine, ref, request):
            entry = engine.ride_entries[match.ride_id]
            if len(entry.segments) < 2 or entry.segment_for(
                match.dropoff_cluster, earliest=False, at_least=1
            ) is None:
                continue
            src = flat._slabs[match.pickup_cluster]
            dst = flat._slabs[match.dropoff_cluster]
            src_cell = (flat.row_of(match.pickup_cluster, match.ride_id), I_SEG_E)
            dst_cell = (flat.row_of(match.dropoff_cluster, match.ride_id), I_SEG_L)
            saved = int(src.idata[src_cell]), int(dst.idata[dst_cell])
            src.idata[src_cell], dst.idata[dst_cell] = 1, 0
            scalar_calls.clear()
            try:
                assert_same_answers(engine, ref, request)
            finally:
                src.idata[src_cell], dst.idata[dst_cell] = saved
            # Once per k per kernel, for this ride at least.
            assert len(scalar_calls) >= 2 * len(KS)
            taken += 1
            break
        if taken == 5:
            break
    assert taken, "no query could be steered into the fallback"


def test_relocation_keeps_rows_and_order(region, city):
    """A slab that moves keeps its rows, their storage order (what the
    stable sorts tie on) and its neighbours' contents."""
    engine, _ref, _layout, _matched = interleaved_run(region, city, 14, 120)
    flat = engine.flat_index
    arena = flat._arena
    before = [
        (slab.rids[: slab.n].tolist(), slab.fdata[: slab.n].tolist(),
         slab.idata[: slab.n].tolist())
        for slab in flat._slabs
    ]
    target = max(flat._slabs, key=lambda slab: slab.n)
    old_arrays, old_base = arena.rids, target.base
    arena.grow(target)                         # relocate (or regrow) once ...
    while arena.rids is old_arrays:
        arena.grow(target)                     # ... and until a regrow
    assert target.base != old_base or arena.rids is not old_arrays
    after = [
        (slab.rids[: slab.n].tolist(), slab.fdata[: slab.n].tolist(),
         slab.idata[: slab.n].tolist())
        for slab in flat._slabs
    ]
    assert after == before
    for slab in flat._slabs:
        assert np.shares_memory(slab.fdata, arena.F)
        assert slab.base + slab.cap <= arena.tail <= len(arena.rids)
    flat.check_consistency(engine)
