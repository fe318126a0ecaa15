"""A pinned replay: the write path may get faster, never different.

150 requests of the session workload run search -> book-best / create-on-
miss with tracking ticks through one engine.  Everything a rider was told
and everything the engine holds afterwards — routes, via-points, budgets,
index entries *in dict order*, slab rows *in storage order* — is folded into
one digest with floats as hex.  The constant below was captured at the
commit before the write path was flattened (scalar reachability loop,
``segment_for`` scans per slab row, per-edge-object shortest paths); any
change to a path's tie-breaking, a float operation's order, or the order
rows are appended to a slab moves it.
"""

from __future__ import annotations

import hashlib

from repro.core import XAREngine

PINNED = "6a40a5246c97cdd427636938bd046fd0ad121591fe931b3482b422b60f9f39f4"
N_REQUESTS = 150
TRACK_EVERY_S = 300.0


def _hex(value) -> str:
    return float(value).hex()


def replay_digest(region, requests) -> str:
    engine = XAREngine(region)
    hasher = hashlib.sha256()

    def note(*parts) -> None:
        hasher.update(("|".join(str(part) for part in parts) + "\n").encode())

    last_tick = None
    for request in requests:
        now = request.window_start_s
        if last_tick is None or now - last_tick >= TRACK_EVERY_S:
            note("tick", _hex(now), engine.track_all(now))
            last_tick = now
        matches = engine.search(request, 5)
        for m in matches:
            note(
                "match", m.ride_id, m.pickup_cluster, m.pickup_landmark,
                m.dropoff_cluster, m.dropoff_landmark, _hex(m.walk_source_m),
                _hex(m.walk_destination_m), _hex(m.eta_pickup_s),
                _hex(m.eta_dropoff_s), _hex(m.detour_estimate_m),
            )
        if matches:
            record = engine.book(request, matches[0])
            note(
                "booked", record.ride_id, _hex(record.detour_actual_m),
                record.shortest_paths_computed,
            )
        else:
            ride = engine.create_ride(
                request.source, request.destination, request.window_start_s
            )
            note("created", ride.ride_id, _hex(ride.length_m))

    note("end", len(engine.rides), len(engine.completed_rides), len(engine.bookings))
    for ride_id in sorted(engine.rides):
        ride = engine.rides[ride_id]
        note(
            "ride", ride_id, ride.route, ride.seats_available,
            _hex(ride.detour_limit_m), _hex(ride.progressed_m),
            [(via.node, via.route_index, via.label, via.request_id)
             for via in ride.via_points],
            [_hex(ride.eta_at_index(i)) for i in range(len(ride.route))],
        )
        entry = engine.ride_entries.get(ride_id)
        if entry is None:
            continue
        note(
            "visits",
            [(v.cluster_id, v.segment_index, _hex(v.eta_s), _hex(v.route_offset_m),
              v.landmark_id) for v in entry.pass_through],
            [(s.start_landmark, s.end_landmark, _hex(s.length_m))
             for s in entry.segments],
        )
        for cluster_id, info in entry.reachable.items():  # dict order matters
            note(
                "reach", cluster_id, sorted(info.supports), _hex(info.eta_s),
                _hex(info.detour_estimate_m), info.support_landmark,
                info.via_landmark,
            )
    flat = engine.flat_index
    for cluster_id, slab in enumerate(flat._slabs):
        for row in range(slab.n):  # storage order == append order
            note(
                "row", cluster_id, int(slab.rids[row]),
                [_hex(value) for value in slab.fdata[row]],
                slab.idata[row].tolist(),
            )
    flat.check_consistency(engine)
    return hasher.hexdigest()


def test_replay_digest_is_pinned(region, workload):
    assert replay_digest(region, workload[:N_REQUESTS]) == PINNED


def test_replay_digest_repeats(region, workload):
    """Nothing survives from one replay to the next over a shared region."""
    first = replay_digest(region, workload[:60])
    assert replay_digest(region, workload[:60]) == first
