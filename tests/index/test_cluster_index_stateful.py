"""Stateful model check of the cluster index against its dual-list reference.

A hypothesis ``RuleBasedStateMachine`` drives ``ClusterRideIndex`` (one
ride → ETA dict per cluster, sorted views built on read) and
``RefClusterRideIndex`` (both sorted lists maintained on every write)
through the same ``add`` / ``update`` / ``remove`` / ``purge_ride`` calls,
with reads interleaved so that a write lands both on built and on unbuilt
views.  Every read must agree *including order*: ETAs come mostly from a
few values and entries are re-updated to an ETA already in their cluster,
so the order of equal ETAs in a window is exercised on most steps.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    invariant,
    precondition,
    rule,
)

from repro.index import ClusterRideIndex
from tests.reference_write_path import RefClusterRideIndex

N_CLUSTERS = 4
CLUSTERS = st.integers(0, N_CLUSTERS - 1)
RIDE_IDS = st.integers(0, 12)
#: Mostly a few shared values, so equal ETAs are the common case.
ETAS = st.one_of(
    st.sampled_from([0.0, 600.0, 1200.0]),
    st.sampled_from([0.0, 600.0, 1200.0]),
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
)
WINDOWS = (
    (-1.0, float("inf")), (600.0, 1200.0), (600.0, 600.0), (1200.0, 0.0),
    (0.0, float("inf")),
)

#: Selected by ``pytest -m reference -k <seed>`` (CI's unpinned-seed run).
pytestmark = pytest.mark.reference

#: The tier-1 seeds, plus any the environment names: CI adds one derived
#: from its run number, so every run drives an interleaving nobody has
#: looked at.
SEEDS = [11, 12, 13] + [
    int(seed) for seed in os.environ.get("XAR_KERNEL_SEEDS", "").split(",") if seed
]


class MirrorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = ClusterRideIndex(N_CLUSTERS)
        self.ref = RefClusterRideIndex(N_CLUSTERS)

    # -- writes -----------------------------------------------------------
    @rule(cluster=CLUSTERS, rid=RIDE_IDS, eta=ETAS)
    def add(self, cluster, rid, eta):
        self.index.add(cluster, rid, eta)
        self.ref.add(cluster, rid, eta)

    @rule(cluster=CLUSTERS, rid=RIDE_IDS, eta=ETAS)
    def update(self, cluster, rid, eta):
        self.index.update(cluster, rid, eta)
        self.ref.update(cluster, rid, eta)

    @precondition(lambda self: self.ref.total_entries())
    @rule(data=st.data())
    def update_to_an_existing_eta(self, data):
        """Re-update an entry to its own ETA (must not move it) or to
        another entry's ETA in the same cluster (a fresh tie)."""
        cluster = data.draw(st.sampled_from([
            c for c in range(N_CLUSTERS) if self.ref.potential_count(c)
        ]))
        entries = list(self.ref.all_rides(cluster))
        rid = data.draw(st.sampled_from(entries)).ride_id
        eta = data.draw(st.sampled_from(entries)).eta_s
        self.index.update(cluster, rid, eta)
        self.ref.update(cluster, rid, eta)

    @rule(cluster=CLUSTERS, rid=RIDE_IDS)
    def remove(self, cluster, rid):
        assert self.index.remove(cluster, rid) == self.ref.remove(cluster, rid)

    @rule(rid=RIDE_IDS)
    def purge_ride(self, rid):
        assert self.index.purge_ride(rid) == self.ref.purge_ride(rid)

    # -- reads (they build views, so they are steps, not invariants) -------
    @rule(cluster=CLUSTERS, window=st.sampled_from(WINDOWS))
    def rides_in_window(self, cluster, window):
        got = list(self.index.rides_in_window(cluster, *window))
        assert got == list(self.ref.rides_in_window(cluster, *window))
        assert self.index.count_in_window(cluster, *window) == \
            self.ref.count_in_window(cluster, *window) == len(got)

    @rule(cluster=CLUSTERS)
    def all_rides(self, cluster):
        assert list(self.index.all_rides(cluster)) == \
            list(self.ref.all_rides(cluster))

    # -- checked after every step -----------------------------------------
    @invariant()
    def point_reads_agree(self):
        for cluster in range(N_CLUSTERS):
            assert self.index.potential_count(cluster) == \
                self.ref.potential_count(cluster)
            for rid in range(13):
                assert self.index.eta(cluster, rid) == self.ref.eta(cluster, rid)
        assert self.index.total_entries() == self.ref.total_entries()
        self.index.check_consistency()


@pytest.mark.parametrize("seed_value", SEEDS, ids=lambda s: f"seed{s}")
def test_cluster_index_state_machine(seed_value):
    run = get_state_machine_test(
        MirrorMachine,
        settings=settings(
            max_examples=100,
            stateful_step_count=50,
            deadline=None,
            database=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
    seed(seed_value)(run)()
