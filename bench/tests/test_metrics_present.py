"""Every named metric is there, with a unit, on every workload."""

from __future__ import annotations

import re

import pytest

from bench import contract, workloads
from bench.layers import PER_LAYER
from bench.metrics import WORKLOAD_METRICS

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_correct_and_complete(traced_results, workload):
    result = traced_results[workload]
    failed = [c for c in result["checks"] if not c["ok"]]
    assert result["correct"], failed
    assert result["failed"] == 0 and result["attempted"] >= 1
    line = contract.last_line(result, trace=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(PER_LAYER)
    for name, value in line["metrics"].items():
        assert NAME.match(name)
        assert value["unit"] == PER_LAYER[name][0]
        assert isinstance(value["value"], float)
    # The end-to-end metrics this workload defines are all there too, and
    # carry a sample count.
    for name in WORKLOAD_METRICS[workload]:
        assert result["metrics"][name]["n"] >= 1, name


def test_layer_predictions_hold_at_smoke_scale(traced_results):
    search = traced_results["engine_search"]["metrics"]
    replay = traced_results["engine_replay"]["metrics"]
    thread = traced_results["thread_service"]["metrics"]
    http = traced_results["http_open"]["metrics"]
    # A read-only workload touches no write path, WAL, router or RPC.
    for name in ("core.create.self_ms", "core.book.self_ms",
                 "index.flat.write_ms", "durability.wal.syncs",
                 "service.router.search_self_ms",
                 "proc.rpc.roundtrip_ms.search"):
        assert search[name]["value"] == 0.0, name
    assert search["index.flat.search_after_write_ratio"]["value"] == 1.0
    assert search["core.search.calls"]["value"] > 0
    # The replay double-writes both indexes and routes with A* / Dijkstra.
    assert replay["index.flat.write_ms"]["value"] > 0
    assert replay["index.cluster.write_ms"]["value"] > 0
    assert replay["roadnet.astar.calls_per_create"]["value"] >= 1
    assert 0 < replay["roadnet.dijkstra.calls_per_book"]["value"] <= 4
    assert replay["durability.wal.syncs"]["value"] == 0
    # The thread service logs, queues and merges; nothing crosses a socket.
    assert thread["durability.wal.append_ms"]["value"] > 0
    assert thread["service.shard.queue_wait_p50_ms"]["n"] > 0
    assert thread["proc.rpc.roundtrip_ms.search"]["value"] == 0.0
    assert thread["durability.recovery.replay_ops_per_s"]["value"] > 0
    # The HTTP stack is all RPC, gateway and client.
    assert http["proc.rpc.roundtrip_ms.search"]["value"] > 0
    assert http["proc.gateway.self_ms"]["value"] > 0
    assert http["proc.client.self_ms"]["value"] > 0
    assert http["proc.rpc.bytes_per_search_response"]["value"] > 0
    assert http["proc.spawn_s"]["value"] > 0


def test_ladder_rungs_agree(traced_results):
    result = traced_results["http_open"]
    digests = result["ladder_digests"]
    assert len(digests) == 6 and len(set(digests.values())) == 1
    metrics = result["metrics"]
    for rung in ("engine", "durable", "thread1", "thread2", "proc2", "http"):
        assert metrics[f"ladder.{rung}.search_p50_ms"]["value"] > 0
    assert (metrics["ladder.http.search_p50_ms"]["value"]
            > metrics["ladder.engine.search_p50_ms"]["value"])
    for rung in ("engine", "durable", "thread1", "thread2"):
        assert metrics[f"ladder.{rung}.unattributed_frac"]["value"] <= 0.15


@pytest.mark.parametrize("workload", ("engine_search", "engine_replay"))
def test_untraced_run_reports_every_contract_metric(workload):
    from bench.runner import run_workload
    from conftest import SCALE, SECONDS

    first = run_workload(workload, seed=5, seconds=SECONDS, scale=SCALE)
    line = contract.last_line(first, trace=False)
    assert set(line["metrics"]) == set(contract.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert first["correct"]
    # Same seed, same inputs, same answers: digests and match_rate repeat.
    again = run_workload(workload, seed=5, seconds=SECONDS, scale=SCALE)
    assert again["digests"] == first["digests"]
    assert (again["metrics"]["match_rate"]["value"]
            == first["metrics"]["match_rate"]["value"])
