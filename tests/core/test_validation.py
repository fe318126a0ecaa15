"""The engine doctor: catches every class of index corruption."""

import pytest

from repro.core import EngineInvariantError, XAREngine, validate_engine
from repro.sim import RideShareSimulator, XARAdapter
from tests.entry_faults import corrupt_entry


@pytest.fixture
def replayed(region, workload):
    engine = XAREngine(region)
    RideShareSimulator(XARAdapter(engine)).run(workload[:200])
    return engine


class TestHealthyEngine:
    def test_fresh_engine_valid(self, engine):
        summary = validate_engine(engine)
        assert summary == {"rides": 0, "entries": 0, "cluster_entries": 0}

    def test_replayed_engine_valid(self, replayed):
        summary = validate_engine(replayed)
        assert summary["rides"] > 0
        assert summary["cluster_entries"] > 0


class TestCorruptionDetection:
    def test_dead_ride_entry(self, replayed):
        ride_id = next(iter(replayed.rides))
        del replayed.rides[ride_id]
        with pytest.raises(EngineInvariantError, match="dead ride"):
            validate_engine(replayed)

    def test_missing_entry(self, replayed):
        ride_id = next(iter(replayed.rides))
        entry = replayed.ride_entries.pop(ride_id)
        with pytest.raises(EngineInvariantError):
            validate_engine(replayed)
        replayed.ride_entries[ride_id] = entry  # restore for other asserts

    def test_orphaned_cluster_entry(self, replayed):
        # Remove a reachable record but leave the cluster-index entry.
        for ride_id, entry in replayed.ride_entries.items():
            if entry.reachable:
                with corrupt_entry(replayed.ride_entries, ride_id) as entry:
                    cluster_id = next(iter(entry.reachable))
                    del entry.reachable[cluster_id]
                break
        with pytest.raises(EngineInvariantError):
            validate_engine(replayed)

    def test_empty_supports(self, replayed):
        for ride_id, entry in replayed.ride_entries.items():
            if entry.reachable:
                with corrupt_entry(replayed.ride_entries, ride_id) as entry:
                    info = next(iter(entry.reachable.values()))
                    info.supports.clear()
                break
        with pytest.raises(EngineInvariantError, match="supports"):
            validate_engine(replayed)

    def test_seat_mismatch(self, replayed):
        ride = next(iter(replayed.rides.values()))
        ride.seats_available = -1
        with pytest.raises(EngineInvariantError, match="seats"):
            validate_engine(replayed)

    def test_negative_detour(self, replayed):
        ride = next(iter(replayed.rides.values()))
        ride.detour_limit_m = -5.0
        with pytest.raises(EngineInvariantError, match="detour"):
            validate_engine(replayed)

    def test_dual_list_divergence(self, replayed):
        # Build one cluster's ETA view by reading it, then corrupt the view
        # directly: it no longer lists what the cluster holds.
        index = replayed.cluster_index
        for cluster_id in range(index.n_clusters):
            window = list(index.rides_in_window(cluster_id, 0.0, float("inf")))
            if window:
                by_eta, _by_ride = index._views[cluster_id]
                by_eta.remove(window[0])
                break
        with pytest.raises(EngineInvariantError, match="sorted view diverged"):
            validate_engine(replayed)
