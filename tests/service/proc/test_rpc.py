"""RPC framing unit tests: no subprocesses, just sockets and bytes."""

from __future__ import annotations

import random
import socket
import struct
import zlib

import pytest

from repro.exceptions import (
    BookingError,
    RpcProtocolError,
    RpcTransportError,
    ShardOverloadError,
    ShardQuarantinedError,
    XARError,
)
from repro.service.proc.rpc import (
    MAX_FRAME_BYTES,
    RetryPolicy,
    book_idempotency_key,
    error_response,
    raise_remote_error,
    read_frame,
    write_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        record = {"id": 7, "op": "book", "args": {"x": [1.5, None, "s"]}}
        write_frame(a, record)
        assert read_frame(b) == record

    def test_frames_do_not_bleed_into_each_other(self, pair):
        a, b = pair
        for i in range(5):
            write_frame(a, {"id": i})
        assert [read_frame(b)["id"] for _ in range(5)] == list(range(5))

    def test_crc_mismatch_is_a_protocol_error(self, pair):
        a, b = pair
        payload = b'{"id": 1}'
        a.sendall(struct.pack("<II", len(payload), zlib.crc32(payload) ^ 0xFF)
                  + payload)
        with pytest.raises(RpcProtocolError, match="CRC"):
            read_frame(b)

    def test_absurd_length_prefix_is_refused_before_allocation(self, pair):
        a, b = pair
        a.sendall(struct.pack("<II", MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(RpcProtocolError, match="exceeds"):
            read_frame(b)

    def test_non_object_payload_is_a_protocol_error(self, pair):
        a, b = pair
        payload = b"[1,2,3]"
        a.sendall(struct.pack("<II", len(payload), zlib.crc32(payload))
                  + payload)
        with pytest.raises(RpcProtocolError, match="not a JSON object"):
            read_frame(b)

    def test_eof_mid_frame_is_a_transport_error(self, pair):
        a, b = pair
        a.sendall(struct.pack("<II", 100, 0) + b"short")
        a.close()
        with pytest.raises(RpcTransportError, match="closed by peer"):
            read_frame(b)


class TestErrorEnvelopes:
    def _round_trip(self, exc):
        return error_response(1, exc)

    def test_domain_errors_round_trip_by_class_name(self):
        envelope = self._round_trip(BookingError("seat taken"))
        with pytest.raises(BookingError, match="seat taken"):
            raise_remote_error(envelope, shard_id=0, operation="book")

    def test_overload_stays_overload(self):
        envelope = self._round_trip(ShardOverloadError(3, "search"))
        with pytest.raises(ShardOverloadError) as err:
            raise_remote_error(envelope, shard_id=0, operation="search")
        assert err.value.shard_id == 3
        assert not isinstance(err.value, ShardQuarantinedError)

    def test_quarantine_stays_quarantine(self):
        envelope = self._round_trip(ShardQuarantinedError(2, "book"))
        with pytest.raises(ShardQuarantinedError) as err:
            raise_remote_error(envelope, shard_id=0, operation="book")
        # Quarantine is an overload subclass: partial-search handling is free.
        assert isinstance(err.value, ShardOverloadError)

    def test_unknown_class_degrades_to_base_xarerror(self):
        # Includes names of error classes that no longer exist.
        for name in ("SomethingNew", "TransientFaultError",
                     "CircuitOpenError"):
            with pytest.raises(XARError, match=f"{name}: boom"):
                raise_remote_error(
                    {"error": name, "message": "boom"},
                    shard_id=0, operation="op",
                )

    def test_structured_ctor_degrades_but_keeps_the_name(self):
        # NoPathError(source, target) cannot be rebuilt from a message.
        with pytest.raises(XARError, match="NoPathError"):
            raise_remote_error(
                {"error": "NoPathError", "message": "no path 1 -> 2"},
                shard_id=0, operation="search",
            )


class TestRetryPolicy:
    def test_backoff_is_exponential_jittered_and_capped(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=0.1,
                             backoff_cap_s=0.4)
        rng = random.Random(1)
        for attempt in range(1, 6):
            ceiling = min(0.4, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = policy.backoff_s(attempt, rng)
                assert 0.5 * ceiling <= delay <= ceiling

    def test_idempotency_key_is_keyed_on_request_and_ride(self):
        assert book_idempotency_key(12, 3) == "book:12:3"
        assert book_idempotency_key(12, 4) != book_idempotency_key(12, 3)
