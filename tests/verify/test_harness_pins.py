"""What the differential harness checks, pinned.

A harness that compared nothing would replay every sequence "clean", so a
clean verdict alone proves little.  These tests pin the harness's work:

* the exact counters (ops by kind, searches, ε-bound checks, bookings,
  audits, the largest bound gap) of every corpus entry and of the smoke
  run — a refactor that silently skips a comparison moves one of them;
* one planted bug per divergence kind: a wrapper that perturbs a single
  op of one façade, and the kind of the first divergence it must raise.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.exceptions import XARError
from repro.verify import (
    DifferentialHarness,
    FuzzConfig,
    generate_ops,
    load_corpus_entry,
    make_facade,
    replay_entry,
)

from .test_corpus import CORPUS_DIR, _build_from_spec

# (op_counts, searches_checked, bound_checks, bookings_checked, audits_run,
#  max_bound_gap_m rounded to 1e-6)
PINNED = {
    "capacity4_budgets.json": (
        {"create": 3, "book": 8, "search": 49, "cancel_booking": 2,
         "track": 1},
        57, 27, 8, 2, 699.99325,
    ),
    "seed10_crash_durable.json": (
        {"create": 36, "search": 27, "book": 24, "crash": 18, "cancel": 7,
         "track": 8},
        63, 58, 12, 3, 1299.925742,
    ),
    "seed13_batch.json": (
        {"create": 28, "search": 29, "cancel": 17, "book": 38, "track": 8},
        67, 51, 6, 3, 499.959495,
    ),
    "seed21_shard4_resilient.json": (
        {"create": 33, "search": 19, "book": 16, "track": 3, "cancel": 9},
        35, 30, 3, 2, 199.935863,
    ),
    "seed7_xar_shard2.json": (
        {"create": 26, "search": 23, "book": 21, "cancel": 4, "track": 6},
        44, 20, 3, 2, 0.0,
    ),
}

SMOKE_PIN = (
    {"create": 29, "search": 13, "book": 17, "track": 8, "cancel": 13},
    30, 13, 3, 2, 699.925738,
)


def _counters(report):
    return (
        report.op_counts,
        report.searches_checked,
        report.bound_checks,
        report.bookings_checked,
        report.audits_run,
        round(report.max_bound_gap_m, 6),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_corpus_entry_counters_are_pinned(name):
    entry = load_corpus_entry(os.path.join(CORPUS_DIR, name))
    report = replay_entry(_build_from_spec(entry["region"]), entry)
    assert report.ok, report.describe()
    assert _counters(report) == PINNED[name]


def test_every_corpus_entry_is_pinned():
    assert sorted(PINNED) == sorted(
        name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
    )


def test_smoke_counters_are_pinned(small_region, smoke_ops):
    report = DifferentialHarness(
        small_region, engines=("xar", "shard2"), seed=5
    ).run(smoke_ops)
    assert report.ok, report.describe()
    assert _counters(report) == SMOKE_PIN


# ----------------------------------------------------------------------
# Planted bugs: one per divergence kind
# ----------------------------------------------------------------------
class _Perturbed:
    """A façade target whose ``method`` goes through ``bug(call, *args)``;
    everything else is the wrapped target's."""

    def __init__(self, inner, method, bug):
        self._inner = inner
        self._method = method
        self._bug = bug

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method:
            return attr
        return lambda *args, **kwargs: self._bug(attr, *args, **kwargs)


class _Skewed:
    """A read-only view of ``obj`` with one numeric field shifted."""

    def __init__(self, obj, field, delta):
        self._obj = obj
        self._field = field
        self._delta = delta

    def __getattr__(self, name):
        value = getattr(self._obj, name)
        return value + self._delta if name == self._field else value


def _refuse(call, *args, **kwargs):
    raise XARError("planted refusal")


def _skew_result(field, delta):
    return lambda call, *args, **kwargs: _Skewed(
        call(*args, **kwargs), field, delta
    )


def _duplicate_first(call, request, k=None):
    matches = call(request, k)
    return matches[:1] + matches


def _rename_last(call, request, k=None):
    matches = call(request, k)
    if not matches:
        return matches
    return matches[:-1] + [dataclasses.replace(matches[-1], ride_id=10**9)]


def _inflate_detours(call, request, k=None):
    return [
        dataclasses.replace(m, detour_estimate_m=m.detour_estimate_m + 1e4)
        for m in call(request, k)
    ]


def _one_more(call, now_s):
    return call(now_s) + 1


def _phantom_ride(call):
    rides = call()
    return rides + [_Skewed(rides[0], "ride_id", 10**9)] if rides else rides


def _drop_index_entry(call, now_s):
    count = call(now_s)
    engine = call.__self__.engine  # the XAR adapter's engine
    for ride_id, entry in engine.ride_entries.items():
        if entry.reachable:
            cluster_id = next(iter(entry.reachable))
            engine.cluster_index.remove(cluster_id, ride_id)
            break
    return count


def _plant(facade_name, method, bug):
    def factory(name, region, seed):
        facade = make_facade(name, region, seed)
        if name == facade_name:
            facade.target = _Perturbed(facade.target, method, bug)
        return facade

    return factory


#: kind -> (façades, planted façade, method, bug)
PLANTED = {
    "create-outcome": (("xar",), "xar", "create", _refuse),
    "ride-state": (
        ("xar",), "xar", "create", _skew_result("departure_s", 1.0)
    ),
    "search-outcome": (("xar",), "xar", "search", _refuse),
    "rank-order": (("xar",), "xar", "search", _duplicate_first),
    "unknown-ride": (("xar",), "xar", "search", _rename_last),
    "epsilon-bound": ((), "oracle", "search", _inflate_detours),
    "epsilon-bound-relaxed": (("batch",), "batch", "search",
                              _inflate_detours),
    "book-outcome": (("xar",), "xar", "book", _refuse),
    "booking-record": (
        ("xar",), "xar", "book", _skew_result("walk_source_m", 1.0)
    ),
    "cancel-outcome": (("xar",), "xar", "cancel", _refuse),
    "cancel-booking-outcome": (("xar",), "xar", "cancel_booking", _refuse),
    "cancellation-record": (
        ("xar",), "xar", "cancel_booking",
        _skew_result("route_delta_m", 1.0),
    ),
    "track-count": (("xar",), "xar", "track_all", _one_more),
    "live-set": (("xar",), "xar", "active_rides", _phantom_ride),
    "invariant": (("xar",), "xar", "track_all", _drop_index_entry),
}


@pytest.fixture(scope="module")
def cancel_ops(small_region):
    """120 ops with booking cancellations, two of which succeed."""
    config = FuzzConfig(seed=5, n_ops=120, corridor_reuse_p=0.8)
    config.weights["cancel_booking"] = 0.15
    return generate_ops(small_region, config)


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_bug_raises_its_divergence_kind(
    small_region, cancel_ops, case
):
    engines, planted, method, bug = PLANTED[case]
    report = DifferentialHarness(
        small_region,
        engines=engines,
        seed=5,
        audit_every=1,
        facade_factory=_plant(planted, method, bug),
    ).run(cancel_ops)
    assert not report.ok, f"{case}: the planted bug went unnoticed"
    first = report.divergences[0]
    assert first.kind == case.replace("-relaxed", ""), report.describe()
    assert first.facade == planted


def test_unknown_op_kind_is_a_bad_op(small_region):
    report = DifferentialHarness(small_region, engines=("xar",)).run(
        [{"op": "frobnicate"}]
    )
    assert [d.kind for d in report.divergences] == ["bad-op"]
    assert report.divergences[0].facade == "harness"
