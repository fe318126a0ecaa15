"""Every persisted record shape, declared once.

A record is an ordered list of ``(json_key, codec)`` pairs (:class:`Record`)
from which *both* ``encode`` and ``decode`` are derived, so a field cannot
exist on one side of a log, a checkpoint or a hop only.  Declared here:

* the domain rows — :data:`REQUEST`, :data:`MATCH`, :data:`BOOKING`,
  :data:`CANCELLATION`, :data:`ROLLBACK` — each over its dataclass's fields;
* :data:`WAL_OPS`, the WAL ``op`` record of each logged mutation, and
  :data:`ABORT`, the record naming a logged op that failed cleanly.

The WAL writer (:class:`~repro.durability.adapter.DurableAdapter`), replay
(:func:`~repro.durability.recovery.replay_record`), the checkpoint ledgers
(:func:`~repro.durability.checkpoint.engine_state`), ``xar wal-dump`` and
the service's op table (:mod:`repro.service.ops`) all derive from these.
The spellings are frozen: every log and checkpoint ever written must still
replay, so a key is never renamed, only added as optional.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Callable, Dict, NamedTuple, Sequence, Tuple

from ..core.booking import BookingRecord, BookingRollback, CancellationRecord
from ..core.request import RideRequest
from ..core.search import MatchOption
from ..geo import GeoPoint


class Codec(NamedTuple):
    """How one value is persisted or crosses a hop.  ``decode`` takes the
    JSON value and the decoder's region; an ``optional`` field may be absent
    (or null) and then decodes from ``None``."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any, Any], Any]
    optional: bool = False


def plain(encode: Callable[[Any], Any], decode: Callable[[Any], Any],
          optional: bool = False) -> Codec:
    """A codec that needs no region to decode."""
    return Codec(encode, lambda value, _region: decode(value), optional)


def many(item: Codec) -> Codec:
    return Codec(
        lambda values: [item.encode(value) for value in values],
        lambda values, region: [item.decode(value, region) for value in values],
    )


def _as_is(value: Any) -> Any:
    return value


def _maybe(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


POINT = plain(lambda point: [point.lat, point.lon],
              lambda coords: GeoPoint(float(coords[0]), float(coords[1])))
FLOAT = plain(_as_is, float)
INT = plain(_as_is, int)
STR = plain(_as_is, str)
#: Stored and restored untouched: no cast can change what is re-written.
ANY = plain(_as_is, _as_is)
OPT_ANY = plain(_as_is, _as_is, optional=True)
OPT_FLOAT = plain(_as_is, _maybe(float), optional=True)
OPT_INT = plain(_as_is, _maybe(int), optional=True)
FLAG = plain(_as_is, bool, optional=True)
COUNTS = plain(_as_is, lambda counts: {k: int(v) for k, v in counts.items()})


class Record:
    """An ordered list of ``(json_key, codec)`` pairs: positional values on
    one side, a JSON object on the other."""

    def __init__(self, *fields: Tuple[str, Codec]):
        self.fields = fields

    @property
    def fields(self) -> Tuple[Tuple[str, Codec], ...]:
        return self._fields

    @fields.setter
    def fields(self, fields: Tuple[Tuple[str, Codec], ...]) -> None:
        self._fields = fields
        self._keys = tuple(key for key, _codec in fields)
        # Only the fields that are not stored as they are need a call.
        self._encoders = tuple(
            (index, key, codec.encode)
            for index, (key, codec) in enumerate(fields)
            if codec.encode is not _as_is
        )
        self._decoders = tuple(
            (key, codec.decode, codec.optional) for key, codec in fields)

    def encode(self, values: Sequence[Any]) -> Dict[str, Any]:
        payload = dict(zip(self._keys, values))
        n_values = len(values)
        for index, key, encode in self._encoders:
            if index < n_values:
                payload[key] = encode(values[index])
        return payload

    def decode(self, payload: Dict[str, Any], region: Any = None) -> Tuple:
        return tuple([
            decode(payload.get(key) if optional else payload[key], region)
            for key, decode, optional in self._decoders
        ])

    def bind(self, args: Tuple, kwargs: Dict[str, Any]) -> Tuple:
        """The positional values of a call made with ``*args, **kwargs``
        (keywords are the JSON keys; optional fields default to None)."""
        if len(args) > len(self.fields):
            raise TypeError(
                f"takes {len(self.fields)} arguments, got {len(args)}")
        values = list(args)
        for key, codec in self.fields[len(args):]:
            if key in kwargs:
                values.append(kwargs.pop(key))
            elif codec.optional:
                values.append(None)
            else:
                raise TypeError(f"missing argument {key!r}")
        if kwargs:
            raise TypeError(f"unexpected arguments {sorted(kwargs)}")
        return tuple(values)


def row(cls: type, *codecs: Codec) -> Codec:
    """A dataclass as the JSON object of its fields, in declaration order;
    ``codecs`` pair up with the fields (none given: every field as is)."""
    keys = [field.name for field in dataclasses.fields(cls)]
    if codecs and len(codecs) != len(keys):
        raise TypeError(f"{cls.__name__} has {len(keys)} fields")
    record = Record(*zip(keys, codecs or [ANY] * len(keys)))
    values_of = attrgetter(*keys)
    return Codec(lambda obj: record.encode(values_of(obj)),
                 lambda state, region: cls(*record.decode(state, region)))


REQUEST = row(RideRequest, INT, POINT, POINT, FLOAT, FLOAT, FLOAT, OPT_FLOAT)
MATCH = row(MatchOption, INT, INT, INT, INT, FLOAT, INT, INT, FLOAT, FLOAT,
            FLOAT, FLOAT)
# The ledgers restore as they were written (an int stays an int).
BOOKING = row(BookingRecord)
CANCELLATION = row(CancellationRecord)
ROLLBACK = row(BookingRollback, INT, INT, STR, STR)
#: A checkpoint's ledgers: engine attribute (and checkpoint key) -> row.
LEDGERS = {"bookings": BOOKING, "rollbacks": ROLLBACK,
           "cancellations": CANCELLATION}

#: The WAL ``op`` record of each logged mutation, by op name.  ``create``
#: carries the ride id the allocator is about to hand out; ``driver_id`` is
#: always null today but old logs carry the key.
WAL_OPS: Dict[str, Record] = {
    "create": Record(("ride_id", INT), ("src", POINT), ("dst", POINT),
                     ("departure_s", FLOAT), ("seats", OPT_INT),
                     ("detour_limit_m", OPT_FLOAT), ("driver_id", OPT_ANY),
                     ("shift_end_s", OPT_FLOAT)),
    "book": Record(("request", REQUEST), ("match", MATCH)),
    "cancel": Record(("ride_id", INT)),
    "cancel_booking": Record(("request_id", INT), ("ride_id", INT)),
    "track": Record(("now_s", FLOAT)),
}
#: Names the ``seq`` of a logged op that failed cleanly.  An aborted
#: booking's record is read back through :data:`ROLLBACK` as its rollback.
ABORT = Record(("aborts", INT), ("request_id", OPT_INT), ("ride_id", OPT_INT),
               ("error", STR), ("reason", STR))
