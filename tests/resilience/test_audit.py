"""Invariant auditor: damage detection, self-healing, and a long fuzz run."""

import random

import pytest

from repro.core import XAREngine, validate_engine
from repro.exceptions import XARError
from repro.resilience import InvariantAuditor
from tests.entry_faults import corrupt_entry


@pytest.fixture
def loaded(region, city, rng):
    """An engine with enough rides that every damage class has a target."""
    engine = XAREngine(region)
    nodes = list(city.nodes())
    for _ in range(50):
        a, b = rng.sample(nodes, 2)
        try:
            engine.create_ride(
                city.position(a), city.position(b), departure_s=rng.uniform(0, 900)
            )
        except Exception:
            continue
    if not engine.rides:
        pytest.skip("no rides created")
    return engine


def _indexed_ride(engine):
    for ride_id, entry in engine.ride_entries.items():
        if entry.reachable:
            return ride_id, entry
    pytest.skip("no indexed ride with reachable clusters")


class TestCleanEngine:
    def test_clean_engine_audits_ok(self, loaded):
        report = InvariantAuditor(loaded).audit()
        assert report.ok
        assert report.rides_checked == len(loaded.rides)
        assert "clean" in report.describe()

    def test_heal_on_clean_engine_is_a_noop(self, loaded):
        auditor = InvariantAuditor(loaded)
        assert auditor.heal() == 0
        assert auditor.stats()["sweeps"] == 1


class TestDamageDetectionAndHealing:
    def test_lost_index_entry_detected_and_healed(self, loaded):
        ride_id, entry = _indexed_ride(loaded)
        cluster_id = next(iter(entry.reachable))
        loaded.cluster_index.remove(cluster_id, ride_id)

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        kinds = report.by_kind()
        assert kinds.get("lost-index-entry") == 1
        assert "missing from the cluster index" in report.describe()

        assert auditor.heal(report) >= 1
        after = auditor.audit()
        assert after.ok
        assert loaded.cluster_index.eta(cluster_id, ride_id) is not None

    def test_ghost_index_entry_detected_and_healed(self, loaded):
        ride_id, entry = _indexed_ride(loaded)
        cluster_id = next(iter(entry.reachable))
        # The entry forgets the cluster; the index still advertises the ride.
        with corrupt_entry(loaded.ride_entries, ride_id) as entry:
            entry.reachable.pop(cluster_id)

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert report.by_kind().get("ghost-index-entry", 0) >= 1
        auditor.heal(report)
        assert auditor.audit().ok

    def test_unsupported_reachable_detected_and_healed(self, loaded):
        ride_id, entry = _indexed_ride(loaded)
        cluster_id = next(iter(entry.reachable))
        with corrupt_entry(loaded.ride_entries, ride_id) as entry:
            entry.reachable[cluster_id].supports.clear()

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert report.by_kind().get("unsupported-reachable") == 1
        assert "no supporting pass-through visit" in report.describe()
        auditor.heal(report)
        assert auditor.audit().ok
        assert not loaded.ride_entries[ride_id].unsupported()

    def test_stray_ghost_in_unreachable_cluster_heals_in_one_pass(self, loaded):
        """Regression: heal's reindex must purge rows the rebuilt entry does
        not name.  Before reindex_ride purged strays, a ghost row in a
        cluster the ride cannot actually reach survived every heal (reindex
        only removed entry-listed clusters, and earliest-wins `add` kept the
        stray) — the auditor reported the same ghost forever."""
        stray = None
        for ride_id, entry in loaded.ride_entries.items():
            for c in range(loaded.region.n_clusters):
                if c not in entry.reachable:
                    stray = c
                    break
            if stray is not None:
                break
        if stray is None:
            pytest.skip("every ride reaches every cluster in this region")
        loaded.cluster_index.add(stray, ride_id, 0.5)

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert report.by_kind().get("ghost-index-entry", 0) >= 1
        auditor.heal(report)
        after = auditor.audit()
        assert after.ok, after.describe()
        if stray not in loaded.ride_entries[ride_id].reachable:
            assert loaded.cluster_index.eta(stray, ride_id) is None

    def test_entry_for_dead_ride_purged(self, loaded):
        ride_id, _entry = _indexed_ride(loaded)
        # The ride dies but its index footprint survives (a crashed removal).
        loaded.rides.pop(ride_id)

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        kinds = report.by_kind()
        assert kinds.get("entry-for-dead-ride") == 1
        auditor.heal(report)
        assert auditor.audit().ok
        assert ride_id not in loaded.ride_entries
        assert loaded.cluster_index.purge_ride(ride_id) == 0  # nothing left

    def test_unindexed_ride_reindexed(self, loaded):
        ride_id, _entry = _indexed_ride(loaded)
        loaded.ride_entries.pop(ride_id)
        loaded.cluster_index.purge_ride(ride_id)

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert report.by_kind().get("unindexed-ride") == 1
        auditor.heal(report)
        assert auditor.audit().ok
        assert ride_id in loaded.ride_entries

    def test_seat_accounting_reported_not_invented_away(self, loaded):
        ride = next(iter(loaded.rides.values()))
        ride.seats_available = ride.seats_total + 3

        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert report.by_kind().get("seats-out-of-range") == 1
        auditor.heal(report)
        # Healing never conjures seats: the violation persists for operators.
        assert ride.seats_available == ride.seats_total + 3

    def test_multi_site_corruption_healed_in_one_pass(self, loaded, rng):
        damage_rng = random.Random(4242)
        victims = 0
        for ride_id, entry in list(loaded.ride_entries.items()):
            if victims >= 5 or not entry.reachable:
                continue
            cluster_id = damage_rng.choice(list(entry.reachable))
            loaded.cluster_index.remove(cluster_id, ride_id)
            victims += 1
        assert victims > 0
        auditor = InvariantAuditor(loaded)
        report = auditor.audit()
        assert len(report.violations) >= victims
        auditor.heal(report)
        assert auditor.audit().ok
        validate_engine(loaded)  # the strict checker agrees


class TestFuzz:
    def test_500_op_fuzz_leaves_zero_violations(self, region, city):
        """Satellite: a seeded 500-operation mix never corrupts the engine."""
        fuzz = random.Random(20260806)
        engine = XAREngine(region)
        auditor = InvariantAuditor(engine)
        nodes = list(city.nodes())
        now_s = 0.0
        matches_pool = []
        executed = {"create": 0, "search": 0, "book": 0, "track": 0, "cancel": 0}

        for _step in range(500):
            now_s += fuzz.uniform(0.0, 30.0)
            op = fuzz.choices(
                ["create", "search", "book", "track", "cancel"],
                weights=[0.3, 0.3, 0.2, 0.1, 0.1],
            )[0]
            try:
                if op == "create":
                    a, b = fuzz.sample(nodes, 2)
                    engine.create_ride(
                        city.position(a),
                        city.position(b),
                        departure_s=now_s + fuzz.uniform(0, 600),
                    )
                elif op == "search":
                    a, b = fuzz.sample(nodes, 2)
                    request = engine.make_request(
                        city.position(a), city.position(b), now_s, now_s + 1800.0
                    )
                    found = engine.search(request)
                    if found:
                        matches_pool.append((request, found[0]))
                elif op == "book" and matches_pool:
                    request, match = matches_pool.pop(
                        fuzz.randrange(len(matches_pool))
                    )
                    engine.book(request, match)
                elif op == "track":
                    engine.track_all(now_s)
                elif op == "cancel" and engine.rides:
                    engine.remove_ride(fuzz.choice(list(engine.rides)))
                else:
                    continue
            except XARError:
                continue  # stale matches etc. are expected under fuzzing
            executed[op] += 1

        assert sum(executed.values()) >= 300  # the mix actually ran
        report = auditor.audit()
        assert report.ok, report.describe()
        validate_engine(engine)
