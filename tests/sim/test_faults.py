"""Fault policies, the injecting adapter, and the acceptance-criteria run."""

import pytest

from repro.core import XAREngine
from repro.exceptions import NoPathError
from repro.resilience import InvariantAuditor
from repro.sim import (
    DriverCancellation,
    FaultInjectingAdapter,
    IndexCorruption,
    RideShareSimulator,
    TrackingDropout,
    XARAdapter,
    default_fault_policies,
)
from repro.sim.adapters import DelegatingAdapter
from repro.sim.simulator import SimulatorConfig


@pytest.fixture
def adapter(region):
    return XARAdapter(XAREngine(region))


def populate(adapter, city, rng, n=30):
    nodes = list(city.nodes())
    for _ in range(n):
        a, b = rng.sample(nodes, 2)
        try:
            adapter.create(city.position(a), city.position(b), rng.uniform(0, 900))
        except Exception:
            continue


class TestTrackingDropout:
    def test_certain_dropout_drops_every_sweep(self, adapter, city, rng):
        populate(adapter, city, rng, n=10)
        faulty = FaultInjectingAdapter(adapter, [TrackingDropout(rate=1.0)], seed=1)
        assert faulty.track_all(600.0) == 0
        assert faulty.policies[0].injections == 1

    def test_zero_rate_never_drops(self, adapter, city, rng):
        populate(adapter, city, rng, n=10)
        faulty = FaultInjectingAdapter(adapter, [TrackingDropout(rate=0.0)], seed=1)
        faulty.track_all(600.0)
        assert faulty.policies[0].injections == 0


class TestDriverCancellation:
    def test_certain_cancellation_withdraws_pending_rides(self, adapter, city, rng):
        populate(adapter, city, rng, n=10)
        n_before = len(adapter.engine.rides)
        assert n_before > 0
        faulty = FaultInjectingAdapter(adapter, [DriverCancellation(rate=1.0)], seed=1)
        faulty.on_request(now_s=0.0)
        assert len(adapter.engine.rides) == n_before - 1
        assert faulty.n_cancelled == 1
        # The withdrawal is atomic: no index structure remembers the ride.
        assert InvariantAuditor(adapter.engine).audit().ok

    def test_no_pending_rides_is_a_noop(self, adapter):
        faulty = FaultInjectingAdapter(adapter, [DriverCancellation(rate=1.0)], seed=1)
        faulty.on_request(now_s=0.0)
        assert faulty.n_cancelled == 0


class TestIndexCorruption:
    def test_corruption_creates_auditor_detectable_damage(self, adapter, city, rng):
        populate(adapter, city, rng)
        faulty = FaultInjectingAdapter(
            adapter, [IndexCorruption(rate=1.0, entries_per_event=3)], seed=1
        )
        faulty.on_request(now_s=0.0)
        assert faulty.policies[0].injections > 0
        auditor = InvariantAuditor(adapter.engine)
        report = auditor.audit()
        assert report.by_kind().get("lost-index-entry", 0) > 0
        auditor.heal(report)
        assert auditor.audit().ok

    def test_inert_without_cluster_index(self):
        class Plain:
            name = "plain"

            def active_rides(self):
                return []

            def cancel(self, ride):
                pass

        faulty = FaultInjectingAdapter(Plain(), [IndexCorruption(rate=1.0)], seed=1)
        faulty.on_request(now_s=0.0)  # must not raise
        assert faulty.policies[0].injections == 0


class TestDeterminism:
    def _run(self, region, workload, seed):
        adapter = FaultInjectingAdapter(
            XARAdapter(XAREngine(region)), default_fault_policies(), seed=seed
        )
        config = SimulatorConfig(audit_every_s=600.0)
        return RideShareSimulator(adapter, config).run(workload[:120])

    def test_same_seed_replays_identically(self, region, workload):
        a = self._run(region, workload, seed=7)
        b = self._run(region, workload, seed=7)
        assert a.fault_injections == b.fault_injections
        assert a.n_booked == b.n_booked
        assert a.n_created == b.n_created
        assert a.n_cancelled == b.n_cancelled

    def test_different_seed_diverges(self, region, workload):
        a = self._run(region, workload, seed=7)
        b = self._run(region, workload, seed=8)
        # Injection counts are overwhelmingly unlikely to coincide exactly
        # across all three policies under different seeds.
        assert a.fault_injections != b.fault_injections

    def test_policies_draw_independently(self, region, workload):
        """Adding a policy must not change another policy's draws."""
        solo = FaultInjectingAdapter(
            XARAdapter(XAREngine(region)), [TrackingDropout(rate=0.5)], seed=5
        )
        duo = FaultInjectingAdapter(
            XARAdapter(XAREngine(region)),
            [TrackingDropout(rate=0.5), DriverCancellation(rate=0.2)],
            seed=5,
        )
        config = SimulatorConfig(track_every_s=60.0)
        solo_report = RideShareSimulator(solo, config).run(workload[:100])
        duo_report = RideShareSimulator(duo, config).run(workload[:100])
        assert duo_report.fault_injections["cancellation"] > 0
        assert (
            solo_report.fault_injections["tracking"]
            == duo_report.fault_injections["tracking"]
        )


class TestAcceptanceCriteria:
    def test_four_policy_storm_completes_clean(self, region, workload):
        """The acceptance run: dropout 10%, cancel 2%, corrupt 1% — no
        unhandled exception and zero post-run violations."""
        engine = XAREngine(region)
        adapter = FaultInjectingAdapter(
            XARAdapter(engine),
            default_fault_policies(
                tracking_rate=0.10,
                cancellation_rate=0.02,
                corruption_rate=0.01,
            ),
            seed=13,
        )
        config = SimulatorConfig(audit_every_s=300.0)
        report = RideShareSimulator(adapter, config).run(workload[:200])

        assert report.n_requests == 200
        assert report.audit["sweeps"] > 0
        assert report.audit["post_run_violations"] == 0
        assert set(report.fault_injections) == {
            "tracking",
            "cancellation",
            "index",
        }
        assert sum(report.fault_injections.values()) > 0
        assert "faults injected" in report.describe()
        # The strict validator agrees with the auditor's verdict.
        from repro.core import validate_engine

        validate_engine(engine)

    def test_unprotected_run_degrades_gracefully(self, region, workload):
        """The simulator itself absorbs failed ops: failed searches count
        as misses, failed creates as unserved."""

        class EveryThirdFails(DelegatingAdapter):
            def __init__(self, inner):
                self.inner, self.name, self.calls = inner, inner.name, 0

            def _roll(self):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise NoPathError(-1, -1)

            def search(self, request, k=None):
                self._roll()
                return super().search(request, k)

            def create(self, *args, **kwargs):
                self._roll()
                return super().create(*args, **kwargs)

        adapter = EveryThirdFails(XARAdapter(XAREngine(region)))
        report = RideShareSimulator(adapter).run(workload[:100])
        assert report.n_requests == 100
        assert report.resilience["search_failures"] > 0
        assert report.resilience["create_failures"] > 0
        assert report.n_created < 100
        assert "failed ops" in report.describe()
