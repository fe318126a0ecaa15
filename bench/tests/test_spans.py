"""Spans are well-formed, across the thread hop too."""

from __future__ import annotations

from bench.trace import self_times


def _tuples(rows):
    return [(r["id"], r["parent"], r["name"], r["start"], r["end"],
             r["request"], r["n"]) for r in rows]


def test_thread_service_spans(traced_results, spans_of):
    rows = spans_of(traced_results["thread_service"])
    assert rows, "no spans written"
    by_id = {r["id"]: r for r in rows}
    assert len(by_id) == len(rows), "span ids repeat"
    roots = [r for r in rows if r["name"] == "request"]
    # One root per request.
    assert all(r["parent"] == 0 for r in roots)
    assert len({r["request"] for r in roots}) == len(roots)
    for row in rows:
        assert row["end"] >= row["start"]
        if row["parent"]:
            assert row["parent"] in by_id, f"{row['name']} has no parent"
    assert all(v >= -1e-9 for v in self_times(_tuples(rows)).values())
    # The hop: queue waits are non-negative, and the job ran on the worker
    # under the submitting request's id.
    waits = [r for r in rows if r["name"] == "service.shard.queue_wait"]
    assert waits and all(r["end"] - r["start"] >= 0 for r in waits)
    services = [r for r in rows if r["name"] == "service.shard.service"]
    assert services and all(r["request"] is not None for r in services
                            if by_id[r["parent"]]["request"] is not None)
    # Engine work done on the worker thread is inside the service span.
    books = [r for r in rows if r["name"] == "core.book"]
    served = 0
    for book in books:
        chain, cursor = [], book
        while cursor["parent"]:
            cursor = by_id[cursor["parent"]]
            chain.append(cursor["name"])
        if "durability.recovery.replay" in chain:
            continue  # crash recovery replays bookings outside any request
        assert "service.shard.service" in chain
        assert chain[-1] == "request"
        served += 1
    assert served


def test_http_orphans_are_adopted(traced_results, spans_of):
    from bench.trace import adopt_orphans

    rows = spans_of(traced_results["http_open"])
    spans = adopt_orphans(_tuples(rows))
    by_id = {s[0]: s for s in spans}
    routed = [s for s in spans if s[2] == "proc.router.search"]
    assert routed
    adopted = [s for s in routed
               if s[1] and by_id[s[1]][2] == "proc.client.search"]
    # Every search a client issued finds the router span that served it.
    client_searches = [s for s in spans if s[2] == "proc.client.search"]
    assert adopted and len(adopted) == len(client_searches)
