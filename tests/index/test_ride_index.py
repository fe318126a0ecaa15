"""RideIndexEntry: arrays, read-only views, obsolescence and segment choice."""

import numpy as np
import pytest

from repro.index import PassThrough, ReachableInfo, RideIndexEntry, SegmentMeta
from tests.reference_write_path import (
    RefReachableInfo,
    RefRideIndexEntry,
    from_reference,
)


def _visit(cluster, segment, eta, landmark=0):
    return PassThrough(
        cluster_id=cluster,
        segment_index=segment,
        eta_s=eta,
        route_offset_m=eta * 10.0,
        landmark_id=landmark,
    )


@pytest.fixture
def entry():
    ref = RefRideIndexEntry(ride_id=1)
    ref.pass_through = [
        _visit(10, 0, 100.0), _visit(11, 0, 200.0), _visit(12, 1, 300.0)
    ]
    for visit in ref.pass_through:
        info = ref.reachable.setdefault(
            visit.cluster_id, RefReachableInfo(visit.cluster_id)
        )
        info.merge(visit.cluster_id, visit.eta_s, 0.0)
    # Cluster 50 reachable from pass-throughs 10 and 12.
    info = ref.reachable.setdefault(50, RefReachableInfo(50))
    info.merge(10, 150.0, 500.0)
    info.merge(12, 350.0, 300.0)
    ref.segments = [SegmentMeta(1, 2, 500.0), SegmentMeta(2, 3, 700.0)]
    return from_reference(ref)


class TestReachableInfo:
    """The merge rule the build reproduces (the object reference's)."""

    def test_merge_keeps_min_eta_and_detour_independently(self):
        info = RefReachableInfo(cluster_id=1)
        info.merge(support=10, eta_s=100.0, detour_m=500.0)
        info.merge(support=11, eta_s=200.0, detour_m=100.0)
        assert info.eta_s == 100.0
        assert info.detour_estimate_m == 100.0
        assert info.supports == {10, 11}

    def test_merge_tracks_best_support_landmarks(self):
        info = RefReachableInfo(cluster_id=1)
        info.merge(10, 100.0, 500.0, support_landmark=3, via_landmark=4)
        info.merge(11, 200.0, 100.0, support_landmark=5, via_landmark=6)
        assert info.support_landmark == 5  # landmark of min-detour support
        info.merge(12, 300.0, 999.0, support_landmark=7, via_landmark=8)
        assert info.support_landmark == 5  # not improved


class TestViews:
    def test_reachable_is_an_ordered_read_only_mapping(self, entry):
        view = entry.reachable
        assert list(view) == [10, 11, 12, 50]
        assert len(view) == 4
        assert 50 in view and 99 not in view
        assert view[50] == ReachableInfo(50, frozenset({10, 12}), 150.0, 300.0)
        assert view.get(99) is None and view.get(99, "x") == "x"
        with pytest.raises(KeyError):
            view[99]
        assert [c for c, _info in view.items()] == list(view)
        assert dict(view) == dict(view.items())
        with pytest.raises(TypeError):
            view[50] = None  # noqa: the view has no writes
        with pytest.raises(AttributeError):
            view.pop(50)

    def test_infos_are_frozen(self, entry):
        info = entry.reachable[50]
        assert isinstance(info.supports, frozenset)
        with pytest.raises(AttributeError):
            info.eta_s = 0.0

    def test_pass_through_and_segments(self, entry):
        assert entry.pass_through == (
            _visit(10, 0, 100.0), _visit(11, 0, 200.0), _visit(12, 1, 300.0)
        )
        assert entry.segments == (SegmentMeta(1, 2, 500.0), SegmentMeta(2, 3, 700.0))
        assert type(entry.pass_through[0].eta_s) is float
        assert type(entry.pass_through[0].cluster_id) is int

    def test_entry_is_immutable(self, entry):
        with pytest.raises(AttributeError):
            entry.ride_id = 2
        with pytest.raises(ValueError):
            entry.supports[0, 0] = False
        with pytest.raises(ValueError):
            entry.reach_f[0, 0] = 0.0
        assert not hasattr(entry, "__dict__")

    def test_etas_in_row_order(self, entry):
        assert list(entry.reachable_etas().items()) == [
            (10, 100.0), (11, 200.0), (12, 300.0), (50, 150.0)
        ]


class TestSupportsLifecycle:
    def test_remove_supports_orphans_only_unsupported(self, entry):
        step = entry.after(100.0)  # crosses visit 10
        # Cluster 10 itself loses its only support; 50 still has support 12.
        assert step.orphaned == [10]
        assert step.shrunk == [50]
        assert step.entry.reachable[50].supports == {12}

    def test_remove_all_supports_orphans_everything(self, entry):
        step = entry.after(300.0)
        assert set(step.orphaned) == {10, 11, 12, 50}
        assert step.shrunk == []
        assert step.entry.reachable == {}
        assert step.entry.supports.shape == (0, 0)

    def test_drop_pass_through(self, entry):
        step = entry.after(200.0)
        assert [v.cluster_id for v in step.entry.pass_through] == [12]

    def test_after_derives_a_new_entry(self, entry):
        before = (entry.pass_through, dict(entry.reachable))
        step = entry.after(150.0)
        assert step.entry is not entry
        assert (entry.pass_through, dict(entry.reachable)) == before
        assert step.entry.segment_landmarks is entry.segment_landmarks

    def test_nothing_due_is_none(self, entry):
        assert entry.after(99.0) is None

    def test_id_sets(self, entry):
        assert entry.pass_through_ids() == {10, 11, 12}
        assert entry.reachable_ids() == {10, 11, 12, 50}
        assert entry.unsupported() == []


class TestSegmentFor:
    def test_pickup_uses_earliest_support(self, entry):
        assert entry.segment_for(50, earliest=True) == 0  # support 10 @ 100s

    def test_dropoff_uses_latest_support(self, entry):
        assert entry.segment_for(50, earliest=False) == 1  # support 12 @ 300s

    def test_at_least_constrains(self, entry):
        assert entry.segment_for(50, earliest=False, at_least=1) == 1
        assert entry.segment_for(11, earliest=False, at_least=1) is None

    def test_unknown_cluster(self, entry):
        assert entry.segment_for(999, earliest=True) is None

    def test_support_segments(self, entry):
        assert entry.support_segments(50) == [0, 1]
        assert entry.support_segments(11) == [0]
        assert entry.support_segments(999) == []


class TestSegmentMeta:
    def test_fields(self):
        meta = SegmentMeta(start_landmark=1, end_landmark=2, length_m=500.0)
        assert meta.length_m == 500.0


def test_empty_entry():
    entry = RideIndexEntry(
        7,
        np.empty((0, 2)), np.empty((0, 3), dtype=np.int64),
        np.empty((0, 2)), np.empty((0, 3), dtype=np.int64),
        np.empty((0, 0), dtype=bool),
        np.array([(-1, -1)], dtype=np.int64), np.array([0.0]),
    )
    assert entry.pass_through == () and len(entry.reachable) == 0
    assert entry.after(1e9) is None
    assert entry.segment_for(1, earliest=True) is None
