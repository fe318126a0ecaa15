"""DiscretizedRegion: resolution, walkable clusters, cluster distances."""

import math
import random
from itertools import takewhile

import pytest

from repro.discretization import Cluster
from repro.exceptions import UncoveredLocationError
from repro.geo import GeoPoint
from repro.index import deep_size_bytes


class TestClusterModel:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            Cluster(cluster_id=0, landmark_ids=(), center_landmark=0)

    def test_rejects_foreign_center(self):
        with pytest.raises(ValueError):
            Cluster(cluster_id=0, landmark_ids=(1, 2), center_landmark=5)


class TestHierarchyResolution:
    def test_point_resolves_through_hierarchy(self, region, city):
        point = city.position(17)
        cell = region.cell_of(point)
        assert region.grid.in_region(cell)
        cluster = region.cluster_of_point(point)
        assert cluster is not None
        assert 0 <= cluster < region.n_clusters

    def test_landmark_position_resolves_to_own_cluster(self, region):
        for landmark in region.landmarks[:10]:
            hit = region.nearest_landmark(landmark.position)
            assert hit is not None
            resolved_cluster = region.cluster_of_point(landmark.position)
            expected = region.cluster_of_landmark(landmark.landmark_id)
            # Snapping to the grid centroid may pick a direct neighbour, but
            # the resolved cluster must contain a landmark near the original.
            assert resolved_cluster is not None
            assert 0 <= resolved_cluster < region.n_clusters
            assert expected == region.cluster_of_landmark(landmark.landmark_id)

    def test_cluster_of_landmark_consistent_with_clusters(self, region):
        for cluster in region.clusters:
            for lid in cluster.landmark_ids:
                assert region.cluster_of_landmark(lid) == cluster.cluster_id


class TestWalkableClusters:
    def test_sorted_by_walk_distance(self, region, city):
        options = region.walkable_clusters(city.position(50))
        walks = [o.walk_m for o in options]
        assert walks == sorted(walks)

    def test_within_system_limit(self, region, city):
        for option in region.walkable_clusters(city.position(50)):
            assert option.walk_m <= region.config.max_walk_m

    def test_one_entry_per_cluster(self, region, city):
        options = region.walkable_clusters(city.position(50))
        ids = [o.cluster_id for o in options]
        assert len(ids) == len(set(ids))

    def test_pruning_by_threshold(self, region, city):
        point = city.position(50)
        full = region.walkable_clusters(point)
        pruned = region.walkable_clusters(point, max_walk_m=300.0)
        assert all(o.walk_m <= 300.0 for o in pruned)
        assert set(pruned) <= set(full)

    def test_walk_distance_uses_circuity(self, region, city):
        point = city.position(50)
        lm = region.landmarks[0]
        expected = point.distance_to(lm.position) * region.config.walk_circuity
        assert region.walk_distance(point, 0) == pytest.approx(expected)

    def test_cache_serves_consistent_lists(self, region, city):
        point = city.position(50)
        a = region.walkable_clusters(point)
        b = region.walkable_clusters(point)
        assert a == b
        assert a is not b  # defensive copy

    def test_cache_stays_bounded_under_distinct_thresholds(self, region, city):
        """A request's walk threshold is a free float on the wire.  Once
        every prefix of a cell's list has been asked for, 5 000 more
        distinct thresholds leave the cache exactly as large, and each
        pruned list is the prefix the threshold keeps."""
        point = city.position(50)
        full = region.walkable_columns(point).options
        assert len(full) >= 3
        region.walkable_columns(point, -1.0)
        for option in full:  # one threshold per prefix length
            region.walkable_columns(point, option.walk_m)
        bounded = deep_size_bytes(region._walkable_cache)
        limit = region.config.max_walk_m
        rng = random.Random(37)
        thresholds = {rng.uniform(-10.0, limit * 1.1) for _ in range(5000)}
        for option in full:  # exact ties and their neighbours
            thresholds.update((
                option.walk_m,
                math.nextafter(option.walk_m, -math.inf),
                math.nextafter(option.walk_m, math.inf),
            ))
        assert len(thresholds) >= 5000
        for threshold in sorted(thresholds):
            got = region.walkable_columns(point, threshold)
            want = list(takewhile(lambda o: o.walk_m <= threshold, full))
            assert got.options == want
            assert got.walk_m.tolist() == [o.walk_m for o in want]
        assert region.walkable_columns(point, math.nan).options == []
        assert deep_size_bytes(region._walkable_cache) == bounded


class TestClusterDistances:
    def test_symmetric_zero_diagonal(self, region):
        k = region.n_clusters
        for i in range(min(k, 6)):
            assert region.cluster_distance(i, i) == 0.0
            for j in range(min(k, 6)):
                assert region.cluster_distance(i, j) == pytest.approx(
                    region.cluster_distance(j, i)
                )

    def test_cluster_distance_is_min_landmark_pair(self, region):
        if region.n_clusters < 2:
            pytest.skip("need two clusters")
        a, b = region.clusters[0], region.clusters[1]
        expected = region.landmark_matrix.min_cross(a.landmark_ids, b.landmark_ids)
        assert region.cluster_distance(0, 1) == pytest.approx(expected)

    def test_clusters_within_sorted_and_bounded(self, region):
        within = region.clusters_within(0, 2000.0)
        distances = [d for _c, d in within]
        assert distances == sorted(distances)
        assert all(d <= 2000.0 for d in distances)
        assert within[0] == (0, 0.0)  # itself first


class TestCoverage:
    def test_covered_point_passes(self, region, city):
        region.require_covered(city.position(10))

    def test_far_away_point_raises(self, region):
        # A point tens of km away from the whole city.
        with pytest.raises(UncoveredLocationError):
            region.require_covered(GeoPoint(41.9, -74.0))
