"""System-level integration tests: full replays with global invariants."""

import random

import pytest

from repro.baselines import TShareEngine
from repro.core import XAREngine
from repro.sim import RideShareSimulator, TShareAdapter, XARAdapter
from repro.sim.simulator import SimulatorConfig
from tests.shortest_path_guard import forbid_shortest_paths


class TestFullReplayXAR:
    def test_replay_maintains_index_consistency(self, region, workload):
        engine = XAREngine(region)
        simulator = RideShareSimulator(XARAdapter(engine))
        simulator.run(workload)
        engine.cluster_index.check_consistency()
        # Every indexed cluster entry corresponds to a live ride's reachable set.
        for ride_id, entry in engine.ride_entries.items():
            assert ride_id in engine.rides
            for cluster_id in entry.reachable_ids():
                assert engine.cluster_index.eta(cluster_id, ride_id) is not None

    def test_replay_detour_guarantee_holds_globally(self, region, workload):
        engine = XAREngine(region)
        RideShareSimulator(XARAdapter(engine)).run(workload)
        epsilon = region.config.epsilon_m
        assert engine.bookings, "replay should produce bookings"
        for record in engine.bookings:
            assert record.approximation_error_m <= 4.0 * epsilon + 1e-6
            assert record.shortest_paths_computed <= 4

    def test_route_length_accounting(self, region, workload):
        """For every ride, final route length == base length + the sum of
        the actual detours charged by its bookings."""
        from repro.core import XAREngine

        engine = XAREngine(region)
        RideShareSimulator(XARAdapter(engine)).run(workload)
        detour_by_ride = {}
        for record in engine.bookings:
            detour_by_ride.setdefault(record.ride_id, 0.0)
            detour_by_ride[record.ride_id] += record.detour_actual_m
        checked = 0
        for ride in list(engine.rides.values()) + list(engine.completed_rides.values()):
            expected = ride.base_length_m + detour_by_ride.get(ride.ride_id, 0.0)
            assert ride.length_m == pytest.approx(expected, abs=1.0)
            if ride.ride_id in detour_by_ride:
                checked += 1
        assert checked > 0

    def test_seats_never_negative_and_capacity_respected(self, region, workload):
        engine = XAREngine(region)
        RideShareSimulator(XARAdapter(engine)).run(workload)
        for ride in list(engine.rides.values()) + list(engine.completed_rides.values()):
            assert 0 <= ride.seats_available <= ride.seats_total
            labels = [v.label for v in ride.via_points]
            assert labels.count("pickup") == ride.seats_total - ride.seats_available

    def test_search_is_shortest_path_free_mid_replay(self, region, workload, monkeypatch):
        """Replay half the stream, then forbid SP routines and search again."""
        engine = XAREngine(region)
        RideShareSimulator(XARAdapter(engine)).run(workload[:200])
        forbid_shortest_paths(monkeypatch)
        for request in workload[200:260]:
            engine.search(request)


class TestCrossEngineComparison:
    def test_both_engines_complete_same_stream(self, region, city, workload):
        stream = workload[:150]
        xar = RideShareSimulator(XARAdapter(XAREngine(region))).run(stream)
        tshare = RideShareSimulator(
            TShareAdapter(TShareEngine(city, cell_m=500.0))
        ).run(stream)
        assert xar.n_requests == tshare.n_requests == 150
        # The paper's Fig. 4 shape: XAR searches faster, T-Share creates faster.
        xar_search = sum(xar.timings.search_s) / len(xar.timings.search_s)
        tshare_search = sum(tshare.timings.search_s) / len(tshare.timings.search_s)
        assert xar_search < tshare_search

    def test_look_to_book_hurts_tshare_more(self, region, city, workload):
        """Fig. 5b in miniature: at r=5 extra looks, T-Share's total time grows
        by a larger factor than XAR's."""
        stream = workload[:60]

        def total_time(adapter, looks):
            report = RideShareSimulator(
                adapter, SimulatorConfig(looks_per_book=looks)
            ).run(stream)
            return sum(report.timings.search_s)

        xar_1 = total_time(XARAdapter(XAREngine(region)), 0)
        xar_5 = total_time(XARAdapter(XAREngine(region)), 4)
        ts_1 = total_time(TShareAdapter(TShareEngine(city, cell_m=500.0)), 0)
        ts_5 = total_time(TShareAdapter(TShareEngine(city, cell_m=500.0)), 4)
        assert ts_5 - ts_1 > xar_5 - xar_1
