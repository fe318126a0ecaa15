"""A thread fan-out search is one kernel pass over every consulted shard.

``ThreadTransport`` admits the search on each consulted shard, takes the
turn once and searches their engines together
(``XAREngine.search(..., peers=...)``).  These tests pin what must not
change against reading each shard separately and k-way-merging: the
answers (byte for byte), shedding and partial results, failover of a
crashed shard, failure counts, and every per-shard metric series.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.request import RideRequest
from repro.durability import DurabilityConfig
from repro.exceptions import XARError
from repro.geo import GeoPoint
from repro.service import ShardRouter, merge_matches
from repro.service.shard import ENGINE_TURN

from ..verify.test_corpus import CORPUS_FILES, _build_from_spec

K_VALUES = (10, None)


def _bytes(matches):
    """Every field of every match, floats by exact repr."""
    return [repr(vars(match)) for match in matches]


def _separate(service, request, k):
    """What the router answered before the pass: each consulted shard's own
    read, k-way-merged."""
    return merge_matches(
        [service.shards[slot].search(request, k)
         for slot in service.shards_for_request(request)],
        k,
    )


def _assert_pass_equals_separate(service, request):
    checked = 0
    for k in K_VALUES:
        fused = service.search(request, k)
        assert _bytes(fused) == _bytes(_separate(service, request, k))
        checked += bool(fused)
    return checked


# ----------------------------------------------------------------------
# Same answers
# ----------------------------------------------------------------------
def _corpus_request(op, request_id):
    return RideRequest(
        request_id=request_id,
        source=GeoPoint(*op["src"]),
        destination=GeoPoint(*op["dst"]),
        window_start_s=op["window"][0],
        window_end_s=op["window"][1],
        walk_threshold_m=op["walk_m"],
        max_detour_m=op.get("max_detour_m"),
    )


@pytest.mark.parametrize("n_shards", (1, 2, 4))
@pytest.mark.parametrize("fanout", ("local", "all"))
def test_pass_equals_merged_shard_reads_on_every_corpus(n_shards, fanout):
    """Each pinned differential corpus, replayed (creates, and the ranked
    booking of each book op) into a router: at every search or book op the
    pass's list is the merge of the shards' own lists, k = 10 and None."""
    searched = nonempty = 0
    for path in CORPUS_FILES:
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        region = _build_from_spec(entry["region"])
        with ShardRouter(region, n_shards, fanout=fanout,
                         seed=int(entry["seed"])) as service:
            for index, op in enumerate(entry["ops"]):
                if op["op"] == "create":
                    try:
                        service.create(
                            GeoPoint(*op["src"]), GeoPoint(*op["dst"]),
                            op["depart_s"], op.get("seats"),
                            op.get("detour_limit_m"),
                        )
                    except XARError:
                        pass
                elif op["op"] in ("search", "book"):
                    request = _corpus_request(op, index + 1)
                    nonempty += _assert_pass_equals_separate(service, request)
                    searched += 1
                    matches = service.search(request, op.get("k"))
                    rank = op.get("rank", 0)
                    if op["op"] == "book" and rank < len(matches):
                        try:
                            service.book(request, matches[rank])
                        except XARError:
                            pass
    assert searched >= 100 and nonempty > 0


@pytest.fixture(scope="module")
def bench_world():
    """The benchmark's pinned city and region (``bench/inputs.py``)."""
    from bench import inputs

    return inputs.build_world()


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("n_shards", (2, 4))
def test_pass_equals_merged_shard_reads_on_bench_service_inputs(
    bench_world, seed, n_shards
):
    """The ``thread_service`` workload's supply and demand streams (a cut of
    its demand), both fan-outs."""
    from bench import inputs

    city, region = bench_world
    supply = inputs.make_stream(city, seed, "supply", 500, 0.75)
    demand = inputs.make_stream(city, seed, "demand", 60, 0.75)
    for fanout in ("local", "all"):
        with ShardRouter(region, n_shards, fanout=fanout,
                         seed=seed) as service:
            for ride in supply:
                try:
                    service.create(ride.source, ride.destination,
                                   ride.window_start_s)
                except XARError:
                    continue
            nonempty = sum(
                _assert_pass_equals_separate(service, request)
                for request in demand
            )
            assert nonempty > len(demand)


# ----------------------------------------------------------------------
# Shedding, failover, failures
# ----------------------------------------------------------------------
def _two_shard_request(service, workload):
    """A request of the workload whose search consults both shards."""
    for request in workload:
        if len(service.shards_for_request(request)) == 2:
            return request
    raise AssertionError("no request of the workload spans both shards")


def _fill(service, workload, n=60):
    for request in list(workload)[:n]:
        try:
            service.create(request.source, request.destination,
                           request.window_start_s)
        except XARError:
            continue


def test_a_shard_held_at_its_budget_is_left_out_of_the_pass(region, workload):
    """Shard 1's only admission is taken by an op blocked on a helper
    thread (which hands the turn back while it waits, so the pass can take
    it): the pass serves shard 0 alone — exactly its own read — the search
    counts as partial, and the shed is counted on shard 1."""
    service = ShardRouter(region, 2, fanout="all", queue_depth=1, seed=3)
    release = threading.Event()
    started = threading.Event()

    def block():
        ENGINE_TURN.release()
        try:
            started.set()
            assert release.wait(timeout=5)
        finally:
            ENGINE_TURN.acquire()

    blocker = threading.Thread(
        target=service.shards[1].worker.call, args=("admin", block))
    try:
        _fill(service, workload)
        request = next(
            request for request in workload
            if service.shards[0].search(request, None)
        )
        alone = service.shards[0].search(request, None)
        ops = service.metrics.get("xar_shard_ops_total")
        blocker.start()
        assert started.wait(timeout=5)
        assert _bytes(service.search(request)) == _bytes(alone)
        assert service.partial_searches == 1
        assert ops.labels(shard="1", op="search", outcome="shed").value == 1
        assert ops.labels(shard="0", op="search", outcome="shed").value == 0
    finally:
        release.set()
        blocker.join(timeout=5)
        service.close()
    assert not blocker.is_alive()


def test_a_crashed_shard_is_failed_over_before_the_pass(
    region, workload, tmp_path
):
    service = ShardRouter(
        region, 2, fanout="all", seed=11,
        durability=DurabilityConfig(directory=str(tmp_path), fsync_every=8),
    )
    try:
        _fill(service, workload)
        request = _two_shard_request(service, workload)
        before = _bytes(service.search(request))
        service.crash_shard(1)
        assert service.shards[1].worker.crashed
        assert _bytes(service.search(request)) == before
        assert not service.shards[1].worker.crashed
        failovers = service.metrics.get("xar_failovers_total")
        assert failovers.labels(shard="1").value == 1
        assert service.partial_searches == 0
    finally:
        service.close()


def test_a_pass_that_raises_fails_once_per_consulted_shard(region, workload):
    service = ShardRouter(region, 4, fanout="all", seed=5)
    try:
        _fill(service, workload)
        request = list(workload)[100]
        for shard in service.shards:
            shard.engine.strict_coverage = True
        outside = RideRequest(
            request_id=1, source=GeoPoint(0.0, 0.0),
            destination=request.destination,
            window_start_s=request.window_start_s,
            window_end_s=request.window_end_s,
            walk_threshold_m=request.walk_threshold_m,
        )
        with pytest.raises(XARError):
            service.search(outside)
        assert service.search_failures == 4
        errors = service.metrics.get("xar_shard_ops_total")
        assert all(
            errors.labels(shard=str(slot), op="search",
                          outcome="error").value == 1
            for slot in range(4)
        )
    finally:
        service.close()


# ----------------------------------------------------------------------
# Per-shard metric attribution
# ----------------------------------------------------------------------
def _series(service):
    """The per-shard search series: ``{(family, labels): value}``."""
    out = {}
    for name, value_of in (
        ("xar_shard_ops_total", lambda child: child.value),
        ("xar_op_duration_seconds", lambda child: child.count),
        ("xar_search_empty_total", lambda child: child.value),
        ("xar_match_detour_ratio", lambda child: child.count),
        ("xar_shard_service_seconds", lambda child: child.count),
        ("xar_shard_queue_wait_seconds", lambda child: child.count),
    ):
        for labels, child in service.metrics.get(name).collect():
            if labels.get("op", "search") == "search":
                out[(name, tuple(sorted(labels.items())))] = value_of(child)
    return out


def test_per_shard_series_read_as_separate_reads_would(region, workload):
    """The same searches through the pass and through each shard's own read
    leave every per-shard search series with the same labels and counts —
    the detour-ratio histogram with the same sums, too.  (Stage histograms
    are the pass's: a shard with no candidates of its own still sees the
    pass's filter and ranking stages.)"""
    requests = list(workload)[60:160]
    services = [ShardRouter(region, 2, fanout="all", seed=3)
                for _twin in range(2)]
    try:
        for service in services:
            _fill(service, workload)
        # Only the searches below are compared.
        base = [_series(service) for service in services]
        fused, separate = services
        for request in requests:
            fused.search(request, 10)
            separate.shards[0].search(request, 10)
            separate.shards[1].search(request, 10)
        grown = [
            {key: value - before.get(key, 0)
             for key, value in _series(service).items()}
            for service, before in zip(services, base)
        ]
        assert grown[0] == grown[1]
        assert grown[0][(
            "xar_shard_ops_total",
            (("op", "search"), ("outcome", "completed"), ("shard", "1")),
        )] == len(requests)
        assert sum(
            value for (name, _labels), value in grown[0].items()
            if name == "xar_search_empty_total"
        ) > 0
        ratios = [
            sorted((tuple(sorted(labels.items())), child.sum)
                   for labels, child in service.metrics.get(
                       "xar_match_detour_ratio").collect())
            for service in services
        ]
        assert ratios[0] == ratios[1]
        stages = {
            (labels["shard"], labels["stage"])
            for labels, _child in fused.metrics.get(
                "xar_stage_duration_seconds").collect()
            if labels["op"] == "search"
        }
        assert stages == {
            (shard, stage) for shard in ("0", "1")
            for stage in ("snap", "cluster_lookup", "candidate_scan",
                          "feasibility_filter", "rank_merge")
        }
    finally:
        for service in services:
            service.close()
