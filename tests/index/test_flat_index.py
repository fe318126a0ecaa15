"""The flat struct-of-arrays search core: slab mechanics over the row
arena, the two-bisect ETA window, and strict-mirror maintenance through
every engine mutation seam (create / book / track / cancel / restore /
heal)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import XAREngine
from repro.index.flat_index import (
    F_DETOUR,
    F_ETA,
    FlatSearchIndex,
)
from repro.resilience.audit import InvariantAuditor
from repro.resilience.snapshot import restore_ride, snapshot_ride

#: The width of the bucket hash the windows used to go through; ETAs on
#: its multiples stay in the brute-force comparison as edge values.
SLICE_S = 600.0


def _slab():
    """A slab of a one-cluster index (slabs live in their index's arena)."""
    return FlatSearchIndex(1).slab(0)


def _window(slab, start_s, end_s):
    """``slab.window`` as (ride ids, ETAs, storage rows): global rows are
    read back through the arena and re-based onto the slab's region."""
    rows, etas = slab.window(start_s, end_s)
    return slab.arena.rids[rows], etas, rows - slab.base


def _fvals(eta, detour=100.0):
    return (eta, detour, 50.0, 60.0)


_IVALS = (0, 1, 2, 3, 4, 5)


class TestSlabMechanics:
    """A slab works on storage rows; the ride -> row handles live in the
    index (here, in a dict kept the way ``FlatSearchIndex`` keeps them)."""

    def test_append_grow_and_lookup(self):
        slab = _slab()
        rows = {}
        for rid in range(50):  # force several capacity doublings
            rows[rid] = slab.append(rid, _fvals(float(rid)), _IVALS)
        assert slab.n == 50
        for rid in range(50):
            row = rows[rid]
            assert slab.rids[row] == rid
            assert slab.fdata[row, F_ETA] == float(rid)

    def test_swap_remove_keeps_row_handles_consistent(self):
        slab = _slab()
        rows = {}
        for rid in range(10):
            rows[rid] = slab.append(rid, _fvals(float(rid)), _IVALS)
        hole = rows.pop(3)
        moved = slab.remove_row(hole)
        assert moved == 9  # the last row fills the hole ...
        rows[moved] = hole  # ... and its handle is patched
        assert rows.pop(3, None) is None  # a second remove has no handle
        assert slab.n == 9
        assert 3 not in rows
        for rid, row in rows.items():
            assert 0 <= row < slab.n
            assert slab.rids[row] == rid
            assert slab.fdata[row, F_ETA] == float(rid)
        # Removing the last row moves nothing.
        assert slab.remove_row(rows.pop(8)) is None
        assert slab.n == 8

    def test_reappend_replaces_the_row(self):
        slab = _slab()
        row = slab.append(7, _fvals(100.0), _IVALS)
        assert slab.remove_row(row) is None
        row = slab.append(7, _fvals(250.0, detour=9.0), _IVALS)
        assert slab.n == 1
        assert slab.fdata[row, F_ETA] == 250.0
        assert slab.fdata[row, F_DETOUR] == 9.0

    def test_eta_change_dirties_update_pickup_does_not(self):
        slab = _slab()
        row = slab.append(1, _fvals(10.0, detour=5.0), _IVALS)
        slab.rebuild()
        assert not slab.dirty
        # Pickup refresh: clean by contract (row identity unchanged), and
        # only the pickup columns move.
        slab.update_pickup(row, (9, 8, 7, 6.0))
        assert not slab.dirty
        assert slab.fdata[row].tolist() == [10.0, 5.0, 6.0, 60.0]
        assert slab.idata[row].tolist() == [9, 1, 8, 7, 4, 5]
        # ETA moved (a reindex: remove, then append): the sorted views must
        # re-sort.
        slab.remove_row(row)
        slab.append(1, _fvals(11.0), _IVALS)
        assert slab.dirty

    def test_sorted_views_match_contents(self):
        rng = random.Random(4)
        slab = _slab()
        rows = {}
        for rid in rng.sample(range(1000), 60):
            rows[rid] = slab.append(rid, _fvals(rng.uniform(0, 5000)), _IVALS)
        slab.rebuild()
        assert list(slab.rid_sorted) == sorted(rows)
        assert list(slab.eta_sorted) == sorted(
            float(slab.fdata[r, F_ETA]) for r in rows.values()
        )
        # eta_rows values are global rows: gathering ETAs through them
        # must reproduce the sorted view, from the arena and from the slab.
        np.testing.assert_array_equal(
            slab.arena.F[slab.eta_rows, F_ETA], slab.eta_sorted
        )
        np.testing.assert_array_equal(
            slab.fdata[slab.eta_rows - slab.base, F_ETA], slab.eta_sorted
        )


class TestWindowQuery:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_matches_brute_force(self, seed):
        rng = random.Random(seed)
        slab = _slab()
        etas = {}
        for rid in range(200):
            # Cluster ETAs around bucket edges: multiples of the slice
            # width land exactly on bucket boundaries.
            eta = rng.choice(
                [rng.uniform(0, 6000), SLICE_S * rng.randint(0, 10)]
            )
            etas[rid] = eta
            slab.append(rid, _fvals(eta), _IVALS)
        for _ in range(80):
            start = rng.uniform(-100, 6100)
            end = rng.choice([start + rng.uniform(0, 2500), float("inf")])
            rids, got_etas, rows = _window(slab, start, end)
            expected = sorted(
                (eta, rid) for rid, eta in etas.items() if start <= eta <= end
            )
            assert sorted(zip(got_etas.tolist(), rids.tolist())) == expected
            # Returned rows are storage rows for exactly those ride ids.
            assert [int(slab.rids[r]) for r in rows] == rids.tolist()

    def test_empty_and_inverted_windows(self):
        slab = _slab()
        rids, etas, rows = _window(slab, 0.0, 100.0)
        assert len(rids) == 0
        slab.append(1, _fvals(50.0), _IVALS)
        rids, _, _ = _window(slab, 200.0, 100.0)  # end < start
        assert len(rids) == 0
        rids, _, _ = _window(slab, 50.0, 50.0)  # inclusive point hit
        assert rids.tolist() == [1]

    def test_mutations_between_queries_rebuild_lazily(self):
        slab = _slab()
        row = slab.append(1, _fvals(100.0), _IVALS)
        assert _window(slab, 0.0, 1000.0)[0].tolist() == [1]
        slab.append(2, _fvals(200.0), _IVALS)
        assert slab.remove_row(row) == 2
        assert _window(slab, 0.0, 1000.0)[0].tolist() == [2]


def _populate(engine, city, rng, n=25):
    nodes = list(city.nodes())
    for _ in range(n):
        a, b = rng.sample(nodes, 2)
        try:
            engine.create_ride(
                city.position(a), city.position(b), departure_s=rng.uniform(0, 1800)
            )
        except Exception:
            continue
    return engine


def _assert_mirror(engine):
    problems = engine.flat_index.divergences(engine)
    assert problems == [], problems
    engine.flat_index.check_consistency(engine)


class TestMirrorMaintenance:
    def test_mirror_through_create_book_track_cancel(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng)
        _assert_mirror(engine)

        # Book a few matches.
        nodes = list(city.nodes())
        booked = 0
        for _ in range(120):
            if booked >= 3:
                break
            a, b = rng.sample(nodes, 2)
            request = engine.make_request(
                city.position(a), city.position(b), 0.0, 3600.0
            )
            matches = engine.search(request, k=3)
            if not matches:
                continue
            try:
                engine.book(request, matches[0])
                booked += 1
            except Exception:
                continue
        assert booked
        _assert_mirror(engine)

        # Track forward: obsolescence shrinks rows; completion drops rides.
        engine.track_all(900.0)
        _assert_mirror(engine)
        engine.track_all(10_000.0)
        _assert_mirror(engine)

        # Cancel whatever is left.
        for ride_id in list(engine.rides):
            engine.remove_ride(ride_id)
        _assert_mirror(engine)
        assert engine.flat_index.total_rows() == 0

    def test_mirror_through_snapshot_restore(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=10)
        ride_id = next(iter(engine.rides))
        snapshot = snapshot_ride(engine, ride_id)

        # Mutate past the snapshot, then roll back.
        engine.track_all(600.0)
        restore_ride(engine, snapshot)
        _assert_mirror(engine)
        for cluster_id, eta in snapshot.index_etas.items():
            assert engine.flat_index.eta(cluster_id, ride_id) == eta

    def test_eta_query_mirrors_cluster_index(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=10)
        index = engine.cluster_index
        for cluster_id in range(index.n_clusters):
            for potential in index.all_rides(cluster_id):
                assert engine.flat_index.eta(
                    cluster_id, potential.ride_id
                ) == index.eta(cluster_id, potential.ride_id)


class TestDivergenceDetectionAndHealing:
    def test_dropped_row_is_detected_and_healed(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=8)
        ride_id = next(iter(engine.rides))
        engine.flat_index.drop_ride(ride_id)

        problems = engine.flat_index.divergences(engine)
        assert any(rid == ride_id for rid, _detail in problems)

        auditor = InvariantAuditor(engine)
        report = auditor.audit()
        assert "flat-index-divergence" in report.by_kind()
        assert auditor.heal(report) > 0
        _assert_mirror(engine)
        assert auditor.audit().ok

    def test_stale_budget_is_detected_and_healed(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=8)
        ride = next(iter(engine.rides.values()))
        ride.seats_available = 0  # poked without the reindex seam

        problems = engine.flat_index.divergences(engine)
        assert any("seats" in detail for _rid, detail in problems)
        # The search itself reads seats live, so the stale mirror never
        # leaks into results even before the heal.
        auditor = InvariantAuditor(engine)
        auditor.heal()
        _assert_mirror(engine)

    def test_stale_eta_is_detected(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=8)
        flat = engine.flat_index
        ride_id, clusters = next(iter(flat._ride_clusters.items()))
        slab = flat._slabs[clusters[0]]
        slab.fdata[flat.row_of(clusters[0], ride_id), F_ETA] += 123.0
        problems = flat.divergences(engine)
        assert any("ETA" in detail for _rid, detail in problems)

    def test_refresh_budget_resyncs_columns(self, region, city, rng):
        engine = _populate(XAREngine(region), city, rng, n=5)
        ride = next(iter(engine.rides.values()))
        ride.seats_available = max(0, ride.seats_available - 1)
        assert engine.flat_index.divergences(engine)
        engine.flat_index.refresh_budget(ride)
        _assert_mirror(engine)
