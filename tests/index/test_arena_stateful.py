"""Stateful model check of the row arena under the flat index.

A hypothesis ``RuleBasedStateMachine`` drives two indexes at once:

* a bare ``FlatSearchIndex`` through the slab seams (``append`` /
  ``remove_row`` / ``update_pickup``, on storage rows the machine keeps
  ride -> row handles for, patched on every swap-remove) with arbitrary ride
  ids and ETAs, against a plain dict of what each cluster should hold;
* an engine's index through the ride seams (``reindex_ride`` / ``drop_ride``
  / ``refresh_supports``, directly and via create / book / track / remove),
  against the authoritative ``ClusterRideIndex``.

After every step: slab regions are disjoint views of the arena, the bare
index holds exactly the model's rows at the rows its handles name, the
engine index's row handles name exactly its live rows (each holding its
ride with the ETA the cluster index stores), ``window`` equals a
brute-force scan (ETA order, storage order on ties) and
``divergences(engine) == []``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import XAREngine
from repro.exceptions import XARError
from repro.index.flat_index import F_ETA, FlatSearchIndex
from tests.reference_write_path import assert_row_handles, ref_slab_rows

N_CLUSTERS = 4
#: ETAs cluster on a few values so windows hit ties and exact edges.
ETAS = st.one_of(
    st.sampled_from([0.0, 600.0, 1200.0, 1800.0]),
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
)
WINDOWS = (
    (-1.0, float("inf")), (600.0, 1800.0), (1200.0, 1200.0), (2000.0, 500.0),
)
CLUSTERS = st.integers(0, N_CLUSTERS - 1)
RIDE_IDS = st.integers(0, 60)
LENGTHS = st.floats(min_value=0.0, max_value=900.0, allow_nan=False)
INTS = st.tuples(*[st.integers(-1, 50)] * 6)


def assert_layout(flat):
    """Regions are disjoint, inside the arena's used part, and the slab's
    arrays are the arena's memory at that region."""
    arena = flat._arena
    regions = sorted(
        (slab.base, slab.base + slab.cap) for slab in flat._slabs if slab.cap
    )
    for (_start, end), (next_start, _end) in zip(regions, regions[1:]):
        assert end <= next_start, f"regions overlap: {regions}"
    assert not regions or regions[-1][1] <= arena.tail <= len(arena.rids)
    for slab in flat._slabs:
        assert slab.n <= slab.cap == len(slab.rids) == len(slab.fdata)
        if slab.cap:
            assert np.shares_memory(slab.rids, arena.rids)
            assert np.shares_memory(slab.fdata, arena.F)
            assert np.shares_memory(slab.idata, arena.I)
            assert slab.rids.ctypes.data == arena.rids[slab.base:].ctypes.data
            assert slab.fdata.ctypes.data == arena.F[slab.base:].ctypes.data
            assert slab.idata.ctypes.data == arena.I[slab.base:].ctypes.data
        ref_slab_rows(slab)  # one row per ride


def assert_windows(flat):
    arena = flat._arena
    for cluster_id, slab in enumerate(flat._slabs):
        etas = slab.fdata[: slab.n, F_ETA].tolist()
        for start, end in WINDOWS:
            rows, got_etas = flat.window(cluster_id, start, end)
            expected = sorted(
                (eta, row) for row, eta in enumerate(etas) if start <= eta <= end
            )
            assert (rows - slab.base).tolist() == [row for _eta, row in expected]
            assert got_etas.tolist() == [eta for eta, _row in expected]
            assert arena.eta[rows].tolist() == got_etas.tolist()


class ArenaMachine(RuleBasedStateMachine):
    region = None  # bound per test from the session fixtures
    city = None

    def __init__(self):
        super().__init__()
        self.bare = FlatSearchIndex(N_CLUSTERS)
        #: cluster -> ride id -> (float columns, int columns)
        self.model = [dict() for _cluster in range(N_CLUSTERS)]
        #: cluster -> ride id -> storage row in the bare index's slab
        self.handles = [dict() for _cluster in range(N_CLUSTERS)]
        self.engine = XAREngine(self.region)
        self.nodes = list(self.city.nodes())
        self.now = 0.0

    # -- slab seams on the bare index -------------------------------------
    @rule(cluster=CLUSTERS, rid=RIDE_IDS, eta=ETAS, detour=LENGTHS,
          sp_len=LENGTHS, sd_len=LENGTHS, ivals=INTS)
    def put(self, cluster, rid, eta, detour, sp_len, sd_len, ivals):
        """Append a row; a ride that has one is reindexed: remove, append."""
        fvals = (eta, detour, sp_len, sd_len)
        self._remove(cluster, rid)
        self.handles[cluster][rid] = self.bare._slabs[cluster].append(
            rid, fvals, ivals
        )
        self.model[cluster][rid] = (fvals, ivals)

    @rule(cluster=CLUSTERS, rid=RIDE_IDS)
    def remove(self, cluster, rid):
        removed = self._remove(cluster, rid)
        assert removed == (self.model[cluster].pop(rid, None) is not None)

    def _remove(self, cluster, rid):
        handles = self.handles[cluster]
        row = handles.pop(rid, None)
        if row is None:
            return False
        slab = self.bare._slabs[cluster]
        last = slab.n - 1
        moved = slab.remove_row(row)
        if row == last:
            assert moved is None
        else:
            assert handles[moved] == last  # the last row filled the hole
            handles[moved] = row
        return True

    @rule(cluster=CLUSTERS, rid=RIDE_IDS, sp_len=LENGTHS,
          ints=st.tuples(*[st.integers(-1, 50)] * 3))
    def update_pickup(self, cluster, rid, sp_len, ints):
        slab = self.bare._slabs[cluster]
        was_dirty = slab.dirty
        row = self.handles[cluster].get(rid)
        if row is not None:
            slab.update_pickup(row, (*ints, sp_len))
        assert slab.dirty == was_dirty  # never dirties the sorted views
        if rid in self.model[cluster]:
            (eta, detour, _sp, sd_len), ivals = self.model[cluster][rid]
            seg_e, sp_a, sp_b = ints
            self.model[cluster][rid] = (
                (eta, detour, sp_len, sd_len),
                (seg_e, ivals[1], sp_a, sp_b, *ivals[4:]),
            )

    # -- ride seams on the engine's index ---------------------------------
    @rule(a=st.integers(0, 71), b=st.integers(0, 71),
          departure=st.floats(min_value=0.0, max_value=1800.0))
    def create(self, a, b, departure):
        if a == b:
            return
        try:
            self.engine.create_ride(
                self.city.position(self.nodes[a]),
                self.city.position(self.nodes[b]),
                self.now + departure,
            )
        except XARError:
            pass

    @rule(a=st.integers(0, 71), b=st.integers(0, 71))
    def search_and_book(self, a, b):
        if a == b:
            return
        request = self.engine.make_request(
            self.city.position(self.nodes[a]), self.city.position(self.nodes[b]),
            self.now, self.now + 1800.0,
        )
        matches = self.engine.search(request, 3)
        if matches:
            try:
                self.engine.book(request, matches[0])
            except XARError:
                pass

    @rule(step=st.floats(min_value=30.0, max_value=900.0))
    def track(self, step):
        self.now += step
        self.engine.track_all(self.now)

    def _stored_etas(self, ride_id):
        index = self.engine.cluster_index
        return {
            cluster_id: index.eta(cluster_id, ride_id)
            for cluster_id in self.engine.flat_index._ride_clusters[ride_id]
        }

    @precondition(lambda self: self.engine.rides)
    @rule(data=st.data(), drop_first=st.booleans())
    def reindex_ride(self, data, drop_first):
        flat = self.engine.flat_index
        ride_id = data.draw(st.sampled_from(sorted(self.engine.rides)))
        etas = self._stored_etas(ride_id)
        if drop_first:
            flat.drop_ride(ride_id)
            assert flat.divergences(self.engine) or not etas
        flat.reindex_ride(
            self.engine.rides[ride_id], self.engine.ride_entries[ride_id], etas
        )

    @precondition(lambda self: self.engine.rides)
    @rule(data=st.data())
    def refresh_supports(self, data):
        ride_id = data.draw(st.sampled_from(sorted(self.engine.rides)))
        entry = self.engine.ride_entries[ride_id]
        shrunk = data.draw(st.sets(st.sampled_from(sorted(entry.reachable) or [0])))
        self.engine.flat_index.refresh_supports(ride_id, entry, shrunk)

    @precondition(lambda self: self.engine.rides)
    @rule(data=st.data())
    def remove_ride(self, data):
        self.engine.remove_ride(
            data.draw(st.sampled_from(sorted(self.engine.rides)))
        )

    # -- checked after every step -----------------------------------------
    @invariant()
    def arena_is_sound(self):
        for flat in (self.bare, self.engine.flat_index):
            assert_layout(flat)
            assert_windows(flat)

    @invariant()
    def bare_index_equals_model(self):
        for slab, expected, handles in zip(
            self.bare._slabs, self.model, self.handles
        ):
            assert ref_slab_rows(slab) == handles
            assert set(handles) == set(expected)
            for rid, (fvals, ivals) in expected.items():
                row = handles[rid]
                assert tuple(slab.fdata[row].tolist()) == fvals
                assert tuple(slab.idata[row].tolist()) == ivals
        rows = sum(len(expected) for expected in self.model)
        assert self.bare.stats()["rows"] == rows <= self.bare.stats()["arena_capacity"]

    @invariant()
    def engine_index_mirrors_cluster_index(self):
        assert self.engine.flat_index.divergences(self.engine) == []

    @invariant()
    def engine_row_handles_name_their_rows(self):
        assert_row_handles(self.engine.flat_index, self.engine.cluster_index)


def test_arena_state_machine(small_region, small_city):
    class Machine(ArenaMachine):
        region = small_region
        city = small_city

    run_state_machine_as_test(
        Machine,
        settings=settings(
            max_examples=25,
            stateful_step_count=40,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
