"""Differential harness: clean runs agree, planted bugs are caught.

The fast smoke (tier-1) replays one seeded sequence on the small region; the
``fuzz``-marked sweep runs the full façade matrix at several seeds and is
picked up by the CI fuzz job (deselected from tier-1 via ``addopts``).
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.verify import (
    DifferentialHarness,
    FuzzConfig,
    generate_ops,
    make_facade,
)


class _LossyAdapter:
    """Planted bug: search silently drops its best-ranked match."""

    def __init__(self, inner):
        self.inner = inner

    def search(self, request, k=None):
        return self.inner.search(request, k)[1:]

    def __getattr__(self, name):
        return getattr(self.inner, name)


def lossy_factory(name, region, seed):
    facade = make_facade(name, region, seed)
    if name == "xar":
        facade.target = _LossyAdapter(facade.target)
    return facade


def test_smoke_no_divergence_across_facades(small_region, smoke_ops):
    harness = DifferentialHarness(small_region, engines=("xar", "shard2"), seed=5)
    report = harness.run(smoke_ops)
    assert report.ok, report.describe()
    assert report.n_ops == len(smoke_ops)
    assert report.searches_checked > 0
    assert report.bound_checks > 0, "no search ever matched: the smoke is inert"
    assert report.bookings_checked > 0, "no booking was ever diffed"
    assert report.audits_run >= 1
    assert report.max_bound_gap_m <= harness.epsilon_bound_m


def test_oracle_is_always_inserted_as_the_reference(small_region):
    harness = DifferentialHarness(small_region, engines=("xar",))
    assert harness.engine_names[0] == "oracle"
    report = harness.run([])
    assert report.engines[0] == "oracle"


def test_planted_search_bug_is_caught(small_region, smoke_ops):
    report = DifferentialHarness(
        small_region,
        engines=("xar",),
        seed=5,
        facade_factory=lossy_factory,
    ).run(smoke_ops)
    assert not report.ok
    assert report.divergences[0].kind == "search-mismatch"
    assert report.divergences[0].facade == "xar"


def test_stop_on_divergence_is_optional(small_region, smoke_ops):
    report = DifferentialHarness(
        small_region,
        engines=("xar",),
        seed=5,
        facade_factory=lossy_factory,
        stop_on_divergence=False,
    ).run(smoke_ops)
    assert len(report.divergences) > 1  # kept going after the first hit


def test_fuzz_counters_land_on_the_registry(small_region, smoke_ops):
    registry = MetricsRegistry()
    DifferentialHarness(
        small_region, engines=("xar",), seed=5, metrics=registry
    ).run(smoke_ops)
    families = {family.name for family in registry.families()}
    assert "xar_fuzz_ops_total" in families
    assert "xar_fuzz_bound_checks_total" in families
    ops_family = next(
        family for family in registry.families()
        if family.name == "xar_fuzz_ops_total"
    )
    total = sum(child.value for _labels, child in ops_family.collect())
    assert total == len(smoke_ops)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_facade_matrix_at_depth(small_region, seed):
    ops = generate_ops(small_region, FuzzConfig(seed=seed, n_ops=200))
    report = DifferentialHarness(
        small_region,
        engines=("xar", "shard1", "shard2", "shard4"),
        seed=seed,
    ).run(ops)
    assert report.ok, report.describe()
    assert report.bound_checks > 0
