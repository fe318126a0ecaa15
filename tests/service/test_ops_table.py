"""Walk the op table: every declared op, over every hop.

``repro.service.ops`` declares each service op once; the child's dispatch,
both shard transports, the gateway and the HTTP client are derived from it.
One scripted session (:func:`script`) touches every op with every optional
argument set, and is

* replayed on a bare ``XARAdapter`` — the reference answers, which are also
  the samples that round-trip through ``encode -> JSON -> decode``;
* replayed through the thread transport, the process transport and
  gateway + ``HttpServiceClient``, whose answers must equal the reference's;
* replayed on an ``XARAdapter`` + ``DurableAdapter`` stack that is then
  abandoned: the engine recovered from its WAL must equal the reference's.

A façade given a hand-written codec again would drop or misname a field and
fail the comparison; a field added to ``ops.py`` alone crosses RPC and HTTP
(the last tests add one at run time and touch nothing else).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core import XAREngine
from repro.core.booking import BookingRollback
from repro.core.request import RideRequest
from repro.discretization import region_digest
from repro.durability import (
    DurableAdapter,
    WriteAheadLog,
    engine_state,
    recover_engine,
)
from repro.durability.records import ABORT, ROLLBACK, WAL_OPS
from repro.exceptions import RpcError
from repro.resilience import InvariantAuditor
from repro.service import Gateway, GatewayConfig, HttpServiceClient
from repro.service.ops import OPS, OPT_INT, ROUTES
from repro.service.proc.worker import ShardProcess
from repro.service.stack import ShardSpec, StackConfig
from repro.sim.adapters import XARAdapter

from .conftest import Fleet
from .proc.test_scatter import _Fleet as SocketpairFleet

#: (source node, destination node, depart_s) of the scripted rides.
TRIPS = ((148, 456, 60.0), (424, 42, 120.0), (8, 303, 180.0))


def _request(city, region, ride, request_id):
    """A rider travelling the middle half of ``ride``'s route."""
    route = ride.route
    return RideRequest(
        request_id=request_id,
        source=city.position(route[len(route) // 4]),
        destination=city.position(route[3 * len(route) // 4]),
        window_start_s=0.0,
        window_end_s=3600.0,
        walk_threshold_m=region.config.default_walk_threshold_m,
        max_detour_m=2500.0,
    )


def script(city, region):
    """The session: ``(op name, args)`` steps, where args may be a callable
    of what the earlier steps answered (ride ids differ per deployment)."""
    def create(trip):
        a, b, depart_s = trip
        return ("create", (city.position(a), city.position(b), depart_s,
                           2, 1500.0, 7200.0))

    def first_match(seen):
        request = _request(city, region, seen["create"][0], 501)
        return (request, seen["search"][0][0])

    return [
        *[create(trip) for trip in TRIPS],
        ("find_ride", lambda seen: (seen["create"][1].ride_id,)),
        ("search", lambda seen: (
            _request(city, region, seen["create"][0], 501), 2)),
        ("book", first_match),
        ("bookings", ()),
        ("active_rides", ()),
        ("index_stats", ()),
        ("rollback_count", ()),
        ("stats", ()),
        ("cancel_booking", lambda seen: (501, seen["create"][0].ride_id)),
        ("track", (30.0,)),
        ("cancel", lambda seen: (seen["create"][2],)),
        ("audit", (True,)),
    ]


class Reference:
    """The bare adapter; the ops it has no method for are read off its
    engine the way a one-shard service would answer them."""

    def __init__(self, region, wal=None):
        self.engine = XAREngine(region)
        self.adapter = XARAdapter(self.engine)
        if wal is not None:
            self.adapter = DurableAdapter(self.adapter, wal)

    def find_ride(self, ride_id):
        return self.engine.rides[ride_id]

    def bookings(self):
        return list(self.engine.bookings)

    def audit(self, heal):
        return {"violations":
                len(InvariantAuditor(self.engine).audit().violations),
                "healed": 0}

    def stats(self):
        return {"shards": [{"rides": self.engine.n_active_rides,
                            "bookings": self.engine.n_bookings}]}

    def __getattr__(self, name):
        return getattr(self.adapter, name)


def run(target, steps):
    """Replay ``steps``; returns ``[(op, args, answer, view)]``, the view
    taken as the step answers (in-process rides are live objects).  Ops the
    target has no method for (no HTTP route) are skipped."""
    seen, handles, out = {}, {}, []
    for name, args in steps:
        op = OPS[name]
        method = getattr(target, op.method, None)
        if method is None:
            continue
        values = args(seen) if callable(args) else args
        answer = method(*values)
        seen.setdefault(name, []).append(answer)
        if name == "create":
            handles[answer.ride_id] = len(handles)
        out.append((name, values, answer, _view(name, answer, handles)))
    return out


# ----------------------------------------------------------------------
# Views: what must be equal across deployments (ride ids are per-lane)
# ----------------------------------------------------------------------
def _ride_view(ride):
    return (tuple(ride.route), ride.departure_s, ride.seats_total,
            ride.seats_available, ride.detour_limit_m, ride.shift_end_s,
            ride.status.value,
            tuple((via.node, via.label) for via in ride.via_points))


def _record_view(record, handles):
    fields = dataclasses.asdict(record)
    fields["ride_id"] = handles[fields["ride_id"]]
    return fields


def _view(name, answer, handles):
    if name in ("create", "find_ride"):
        return _ride_view(answer)
    if name == "active_rides":
        return sorted(_ride_view(ride) for ride in answer)
    if name in ("search", "bookings"):
        return [_record_view(record, handles) for record in answer]
    if name in ("book", "cancel_booking"):
        return _record_view(answer, handles)
    if name == "audit":
        return (answer["violations"], answer["healed"])
    if name == "stats":
        return (sum(s["rides"] for s in answer["shards"]),
                sum(s["bookings"] for s in answer["shards"]))
    return answer


@pytest.fixture(scope="module")
def reference(city, region):
    return run(Reference(region), script(city, region))


# ----------------------------------------------------------------------
# (a) every declared field round-trips
# ----------------------------------------------------------------------
def test_the_script_touches_every_op_and_sets_every_optional(reference):
    assert {step[0] for step in reference} == set(OPS)
    for name, values, _answer, _seen in reference:
        op = OPS[name]
        assert len(values) == len(op.args.fields), name
        for (key, codec), value in zip(op.args.fields, values):
            if codec.optional:
                assert value not in (None, False), f"{name}.{key} left unset"
    assert len(reference[4][2]) == 1, "the scripted search must match"


def test_args_and_results_round_trip_through_json(reference, region):
    for name, values, answer, _seen in reference:
        op = OPS[name]
        if name == "audit":
            answer = (answer["violations"], answer["healed"])
        wire = json.loads(json.dumps(op.args.encode(values)))
        assert list(wire) == [key for key, _codec in op.args.fields]
        assert op.args.encode(op.args.decode(wire, region)) == wire, name
        wire = json.loads(json.dumps(op.encode_result(answer)))
        back = op.decode_result(wire, region)
        assert op.encode_result(back) == wire, name
        if op.result is not None and len(op.result.fields) != 1:
            assert back == (answer if op.result.fields else None), name


def test_persisted_rows_round_trip_through_json():
    """The rows only a WAL or a checkpoint carries: a rollback, and the
    aborts of a booking and of a create (which names no request)."""
    rollback = BookingRollback(501, 3, "BookingError", "ride 3 is gone")
    wire = json.loads(json.dumps(ROLLBACK.encode(rollback)))
    assert list(wire) == ["request_id", "ride_id", "error", "reason"]
    assert ROLLBACK.decode(wire, None) == rollback
    for values in ((17, 501, 3, "BookingError", "ride 3 is gone"),
                   (18, None, 4, "NoPathError", "no route")):
        wire = json.loads(json.dumps(ABORT.encode(values)))
        assert list(wire) == ["aborts", "request_id", "ride_id", "error",
                              "reason"]
        assert ABORT.decode(wire) == values
    # An aborted booking's record reads back as its rollback.
    wire = ABORT.encode((17, 501, 3, "BookingError", "ride 3 is gone"))
    assert ROLLBACK.decode(wire, None) == rollback


def test_every_logged_op_has_a_wal_record():
    assert set(WAL_OPS) == {op.name for op in OPS.values() if op.adapter_job}


def test_the_session_recovers_from_a_durable_stack(
    reference, city, region, tmp_path
):
    """The scripted session on ``XARAdapter`` + ``DurableAdapter``, abandoned
    (process death) and recovered from its WAL alone, is the reference."""
    wal = WriteAheadLog.open(
        str(tmp_path / "shard0.wal"), shard_id=0, ride_id_start=1,
        ride_id_step=1, region_digest=region_digest(region))
    durable = Reference(region, wal)
    trace = run(durable, script(city, region))
    assert [step[3] for step in trace] == [step[3] for step in reference]
    durable.adapter.abandon()
    recovered = recover_engine(region, str(tmp_path / "shard0.wal")).engine
    expected = Reference(region)
    run(expected, script(city, region))
    got, want = engine_state(recovered), engine_state(expected.engine)
    # Replay keeps the request-id allocator past every logged request (the
    # script names its request ids instead of allocating them).
    assert got["counters"].pop("request_next") == 502
    want["counters"].pop("request_next")
    assert got == want


def test_the_documented_table_is_the_declared_one():
    """docs/service.md "Ops" is a rendering of ``OPS``, row for row."""
    docs = pathlib.Path(__file__).parents[2] / "docs" / "service.md"
    rows = [
        [cell.strip() for cell in line.strip("|\n").split("|")]
        for line in docs.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `") and line.count("|") == 7
    ]
    keys = {"book": "book:{request_id}:{ride_id}",
            "cancel_booking": "cancel_booking:{request_id}:{ride_id}",
            "track": "track:{now_s}"}
    assert {name for name, op in OPS.items() if op.idem} == set(keys)
    assert rows == [
        [f"`{op.name}`", f"`{op.method}`",
         f"`{' '.join(op.http)}`" if op.http else "—", op.routing,
         "yes" if op.mutates else "no",
         f"`{keys[op.name]}`" if op.idem else "—"]
        for op in OPS.values()
    ]
    assert OPS["book"].idem_key((SimpleNamespace(request_id=12),
                                 SimpleNamespace(ride_id=3))) == "book:12:3"
    assert OPS["cancel_booking"].idem_key((12, 3)) == "cancel_booking:12:3"
    assert OPS["track"].idem_key((45.0,)) == "track:45.0"


def test_optional_fields_may_be_absent_on_the_wire(city, region):
    create = OPS["create"].args
    wire = create.encode((city.position(0), city.position(5), 0.0))
    assert list(wire) == ["source", "destination", "depart_s"]
    assert create.decode(wire)[3:] == (None, None, None)
    assert OPS["audit"].args.decode({}) == (False,)
    with pytest.raises(KeyError):
        create.decode({"source": [0.0, 0.0]})


# ----------------------------------------------------------------------
# (b) every hop answers like the bare adapter
# ----------------------------------------------------------------------
@pytest.fixture(params=["thread", "proc", "http"])
def deployment(request, region, saved_region, tmp_path):
    """The service under test and, for ``http``, what fronts it."""
    kind = request.param
    fleet = Fleet("proc" if kind == "proc" else "thread", region,
                  saved_region)
    service = fleet.open(tmp_path / "run", max_shards=None)
    if kind != "http":
        yield service
        service.close()
        return
    gateway = Gateway(service, GatewayConfig(port=0))
    client = HttpServiceClient(gateway.start_background(), region)
    yield client
    client.close()
    gateway.shutdown()
    service.close()


def test_every_op_answers_like_the_bare_adapter(
    deployment, reference, city, region
):
    trace = run(deployment, script(city, region))
    routed = {op.name for op in ROUTES.values()}
    expected = [
        step for step in reference
        if not isinstance(deployment, HttpServiceClient) or step[0] in routed
    ]
    assert [step[0] for step in trace] == [step[0] for step in expected]
    for got, want in zip(trace, expected):
        assert got[3] == want[3], got[0]


def test_an_op_that_is_not_in_the_table_is_refused(
    region, saved_region, tmp_path
):
    service = Fleet("proc", region, saved_region).open(
        tmp_path / "run", max_shards=None)
    try:
        with pytest.raises(RpcError, match="unknown rpc op 'checkpoint'"):
            service.supervisor.rpc(0, "checkpoint", readonly=True)
        # The channel survived the refusal.
        assert service.supervisor.rpc(0, "ping", readonly=True)["pid"]
    finally:
        service.close()


def test_an_unknown_route_is_a_404(region):
    gateway = Gateway(XARAdapter(XAREngine(region)), GatewayConfig(port=0))
    url = gateway.start_background()
    try:
        for data in (None, b"{}"):  # GET, then POST
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}/v1/find_ride", data=data)
            assert err.value.code == 404
    finally:
        gateway.shutdown()


def test_cancel_booking_over_http_is_idempotent_end_to_end(
    region, saved_region, city, tmp_path
):
    """Like ``book``: a re-sent cancellation is answered from the child's
    ledger with the original record instead of un-splicing twice."""
    service = Fleet("proc", region, saved_region).open(
        tmp_path / "run", max_shards=None)
    gateway = Gateway(service, GatewayConfig(port=0))
    client = HttpServiceClient(gateway.start_background(), region)
    try:
        a, b, depart_s = TRIPS[0]
        ride = client.create(city.position(a), city.position(b), depart_s,
                             seats=2)
        request = _request(city, region, ride, 601)
        match = client.search(request, k=1)[0]
        booking = client.book(request, match)
        assert client.book(request, match) == booking
        first = client.cancel_booking(601, ride.ride_id)
        assert client.cancel_booking(request_id=601,
                                     ride_id=ride.ride_id) == first
        (after,) = client.active_rides()
        assert after.seats_available == 2 and not after.passengers
        assert service.audit()["violations"] == 0
    finally:
        client.close()
        gateway.shutdown()
        service.close()


# ----------------------------------------------------------------------
# A field declared in ops.py alone crosses both hops
# ----------------------------------------------------------------------
class _Echo:
    """A service / adapter whose tick hands back a second argument."""

    name = "echo"

    def track_all(self, now_s, echo=None):
        return -1 if echo is None else echo


@pytest.fixture
def add_echo_field(monkeypatch):
    def add(op_name):
        args = OPS[op_name].args
        monkeypatch.setattr(args, "fields", (*args.fields, ("echo", OPT_INT)))

    return add


def test_a_field_added_to_the_table_crosses_http(add_echo_field, region):
    add_echo_field("track")
    gateway = Gateway(_Echo(), GatewayConfig(port=0))
    client = HttpServiceClient(gateway.start_background(), region)
    try:
        assert client.track_all(5.0, echo=7) == 7
        assert client.track_all(5.0, 8) == 8
        assert client.track_all(5.0) == -1
        with pytest.raises(TypeError):
            client.track_all(5.0, ecoh=7)
    finally:
        client.close()
        gateway.shutdown()


def test_a_field_added_to_the_table_crosses_rpc(
    add_echo_field, saved_region, tmp_path
):
    """Parent and child ends of the hop, joined by a socketpair: an adapter
    job (the tick) and a stack op (the audit) both carry the new field."""
    add_echo_field("track")
    add_echo_field("audit")
    child = ShardProcess({
        "generation": 1,
        "region_dir": saved_region,
        "spec": dataclasses.asdict(ShardSpec(
            0, 1, 1, str(tmp_path / "shard0.wal"),
            str(tmp_path / "shard0.ckpt"))),
        "stack": dataclasses.asdict(StackConfig()),
    })
    child.stack.adapter = _Echo()
    child.stack.audit = lambda heal, echo=None: (int(heal), echo)
    fleet = SocketpairFleet()
    fleet.region = None
    serving = threading.Thread(
        target=child.serve_connection, args=(fleet.peers[0][0],), daemon=True)
    serving.start()
    try:
        assert fleet.call("audit", 0, None, True, 7) == (1, 7)
        assert fleet.track(0, 6.0)() == -1  # sent without the new field
        assert child.dispatch({"id": 1, "op": "track", "args": {
            "now_s": 7.0, "echo": 9}})["result"] == {"affected": 9}
    finally:
        fleet.close()
        serving.join(timeout=5)
        child.stack.worker.close()
        child.stack.release_wal(sync=True)
    assert not serving.is_alive()
