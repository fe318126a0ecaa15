"""The op table: every service operation, declared once.

The runtime is a handful of verbs over one index.  What a verb looks like
on a wire — its RPC name, its HTTP route, the JSON keys of its arguments and
of its answer — and how it is routed and retried is decided here and nowhere
else.  Everything that carries an op across a hop derives from :data:`OPS`:

* the shard subprocess's dispatch (:mod:`~repro.service.proc.worker`)
  decodes ``args`` and encodes the result with the op's records and runs
  :meth:`ShardStack.run <repro.service.stack.ShardStack.run>`;
* both transports answer one ``call(op, slot, guard, *args)``
  (:mod:`~repro.service.transport`, :mod:`~repro.service.proc.supervisor`);
  the UNIX-socket one takes ``readonly`` and the idempotency key from here;
* the gateway serves :data:`ROUTES` and the HTTP client grows one method per
  routed op (:mod:`~repro.service.proc.gateway`, ``.client``).

An op's arguments and its result are each one
:class:`~repro.durability.records.Record` — an ordered list of
``(json_key, codec)`` pairs from which *both* ``encode`` and ``decode`` are
derived, so a field cannot exist on one side of a hop only.  Records, codecs
and the domain rows (requests, matches, bookings, cancellations) live in
:mod:`repro.durability.records`, where the WAL and the checkpoints declare
what they persist: anything that can be replayed can be shipped.  Rides
decode against a region (routes are node ids into its network), which every
decoding side has by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..durability.checkpoint import restore_ride, ride_state
from ..durability.records import (
    BOOKING,
    CANCELLATION,
    COUNTS,
    FLAG,
    FLOAT,
    INT,
    MATCH,
    OPT_FLOAT,
    OPT_INT,
    POINT,
    REQUEST,
    Codec,
    Record,
    many,
    plain,
)
from .proc.rpc import book_idempotency_key

# Routing kinds: which slot(s) the router core sends an op to.
BY_POINT = "by point"    #: the slot owning the source point's cluster
BY_RIDE = "by ride"      #: the ride's home slot (lanes, redirects)
FAN_OUT = "fan-out"      #: the slots owning the request's walkable clusters
BROADCAST = "broadcast"  #: every active slot, behind the tick watermark
PER_SLOT = "per slot"    #: asked of each active slot, answers combined

RIDE = Codec(ride_state, lambda state, region: restore_ride(region, state))
#: A ride named for withdrawal crosses as its id and arrives as a handle
#: (adapters only read ``.ride_id`` of the ride they cancel).
RIDE_HANDLE = plain(lambda ride: ride.ride_id,
                    lambda ride_id: SimpleNamespace(ride_id=int(ride_id)))


@dataclass(frozen=True)
class Op:
    """One service operation."""

    #: RPC op name; also the :class:`~repro.service.stack.ShardStack` method
    #: of an op that is not an adapter job.
    name: str
    #: The ``EngineAdapter`` / service method: what the gateway calls on its
    #: service, what the HTTP client is given, what an adapter job calls.
    method: str
    routing: str
    #: Changes shard state: never blindly re-sent after a transport failure
    #: (a non-mutating op is ``readonly`` on the RPC hop).
    mutates: bool
    args: Record = Record()
    #: ``None``: the reply body *is* the value (a free-form JSON object).
    result: Optional[Record] = Record()
    #: ``(verb, route)`` on the gateway, or None.  GETs are introspection:
    #: neither admission-controlled nor fed to the RTT estimator.
    http: Optional[Tuple[str, str]] = None
    #: Idempotency key from the op's arguments; with one, a mutation whose
    #: connection died mid-call is re-sent and the shard's recovered ledger
    #: (or, for a tick, the sweep's monotonicity) absorbs the duplicate.
    idem: Optional[Callable[..., str]] = None

    @property
    def routed(self) -> bool:
        """Single-slot: carries the core's routing guard."""
        return self.routing in (BY_POINT, BY_RIDE)

    @property
    def adapter_job(self) -> bool:
        """A logged mutation: runs as a worker job against the shard's
        adapter stack.  Every other op is the stack method of its name."""
        return self.mutates and self.routing != PER_SLOT

    def idem_key(self, args: Sequence[Any]) -> Optional[str]:
        return None if self.idem is None else self.idem(*args)

    def encode_result(self, value: Any) -> Any:
        if self.result is None:
            return value
        n_fields = len(self.result.fields)
        return self.result.encode(
            (value,) if n_fields == 1 else value if n_fields else ())

    def decode_result(self, payload: Any, region: Any = None) -> Any:
        """The value, a tuple of values, or None for an empty record."""
        if self.result is None:
            return payload
        values = self.result.decode(payload, region)
        return values[0] if len(values) == 1 else values or None


_OPS = (
    Op("create", "create", BY_POINT, True,
       Record(("source", POINT), ("destination", POINT), ("depart_s", FLOAT),
              ("seats", OPT_INT), ("detour_limit_m", OPT_FLOAT),
              ("shift_end_s", OPT_FLOAT)),
       Record(("ride", RIDE)), http=("POST", "/v1/create")),
    Op("book", "book", BY_RIDE, True,
       Record(("request", REQUEST), ("match", MATCH)),
       Record(("booking", BOOKING)), http=("POST", "/v1/book"),
       idem=lambda request, match: book_idempotency_key(
           request.request_id, match.ride_id)),
    Op("cancel", "cancel", BY_RIDE, True,
       Record(("ride_id", RIDE_HANDLE)), http=("POST", "/v1/cancel")),
    Op("cancel_booking", "cancel_booking", BY_RIDE, True,
       Record(("request_id", INT), ("ride_id", INT)),
       Record(("cancellation", CANCELLATION)),
       http=("POST", "/v1/cancel_booking"),
       idem=lambda request_id, ride_id:
           f"cancel_booking:{request_id}:{ride_id}"),
    Op("find_ride", "find_ride", BY_RIDE, False,
       Record(("ride_id", INT)), Record(("ride", RIDE))),
    Op("search", "search", FAN_OUT, False,
       Record(("request", REQUEST), ("k", OPT_INT)),
       Record(("matches", many(MATCH))), http=("POST", "/v1/search")),
    Op("track", "track_all", BROADCAST, True,
       Record(("now_s", FLOAT)), Record(("affected", INT)),
       http=("POST", "/v1/track"), idem=lambda now_s: f"track:{now_s}"),
    Op("active_rides", "active_rides", PER_SLOT, False,
       result=Record(("rides", many(RIDE))), http=("GET", "/v1/rides")),
    Op("bookings", "bookings", PER_SLOT, False,
       result=Record(("bookings", many(BOOKING)))),
    Op("index_stats", "index_stats", PER_SLOT, False,
       result=Record(("stats", COUNTS)), http=("GET", "/v1/index-stats")),
    Op("rollback_count", "rollback_count", PER_SLOT, False,
       result=Record(("count", INT)), http=("GET", "/v1/rollbacks")),
    # ``heal`` repairs index damage, so an audit is not re-sent blindly.
    Op("audit", "audit", PER_SLOT, True,
       Record(("heal", FLAG)), Record(("violations", INT), ("healed", INT))),
    Op("stats", "stats", PER_SLOT, False, result=None,
       http=("GET", "/v1/stats")),
)

#: RPC op name -> declaration.
OPS: Dict[str, Op] = {op.name: op for op in _OPS}
#: ``(verb, route)`` -> declaration, for every op the gateway serves.
ROUTES: Dict[Tuple[str, str], Op] = {
    op.http: op for op in _OPS if op.http is not None
}
