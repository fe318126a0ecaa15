"""The on-disk formats, pinned byte for byte.

``data/`` holds a WAL and a checkpoint written by one seeded durable session
(:func:`write_session`) over the small test region.  The session touches every
logged op (``create``, ``book``, ``cancel``, ``cancel_booking``, ``track``),
aborts a booking and a cancellation, offers rides with and without a shift
end, and books requests with a per-request detour cap.  The files must

* recover (checkpoint + WAL suffix) to the pinned engine state;
* be what the same session writes today, byte for byte;
* survive checkpoint -> restore -> checkpoint unchanged, byte for byte.

A change that respells a key, reorders checkpoint fields or lets a decode
cast turn an int into a float fails here before it strands an old log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import random

import pytest

from repro.core import XAREngine
from repro.discretization import region_digest
from repro.durability import (
    DurableAdapter,
    WriteAheadLog,
    engine_state,
    read_checkpoint,
    recover_engine,
    restore_engine_state,
    write_checkpoint,
)
from repro.durability.wal import scan_wal
from repro.exceptions import XARError
from repro.sim.adapters import XARAdapter

DATA = pathlib.Path(__file__).parent / "data"
WAL_NAME, CKPT_NAME = "session.wal", "session.ckpt"

#: sha256 of the canonical JSON of the engine the pinned files recover to.
RECOVERED_STATE_SHA256 = (
    "2379d97e88545f34039796060d91cf3810ff553e921ddf82c6fcb89d6b91dae2")


def _fingerprint(engine) -> str:
    state = json.dumps(engine_state(engine), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(state.encode("utf-8")).hexdigest()


def write_session(directory, city, region) -> XAREngine:
    """Run the pinned session into ``directory``; returns the live engine."""
    digest = region_digest(region)
    wal = WriteAheadLog.open(
        os.path.join(directory, WAL_NAME), shard_id=0, ride_id_start=1,
        ride_id_step=1, region_digest=digest, fsync_every=64,
    )
    engine = XAREngine(region)
    adapter = DurableAdapter(
        XARAdapter(engine), wal,
        checkpoint_path=os.path.join(directory, CKPT_NAME),
        shard_id=0, digest=digest,
    )
    rng = random.Random(29)
    nodes = list(city.nodes())

    def create(index, depart_s):
        a, b = rng.sample(nodes, 2)
        try:
            return adapter.create(
                city.position(a), city.position(b), depart_s, 2,
                1500.0 if index % 2 else None,
                shift_end_s=7200.0 if index % 3 == 0 else None,
            )
        except XARError:
            return None

    def book(n_tries):
        booked = []
        for index in range(n_tries):
            a, b = rng.sample(nodes, 2)
            request = engine.make_request(
                city.position(a), city.position(b), 0.0, 3600.0)
            if index % 2:
                request = dataclasses.replace(request, max_detour_m=2500.0)
            matches = adapter.search(request)
            if not matches:
                continue
            try:
                booked.append(adapter.book(request, matches[0]))
            except XARError:
                continue
        return booked

    def abort_a_booking():
        """Book a match whose ride was withdrawn after the search."""
        src, dst = city.position(0), city.position(city.node_count - 1)
        ride = adapter.create(src, dst, 20.0, 2, None)
        request = engine.make_request(src, dst, 0.0, 3600.0)
        match = next(m for m in adapter.search(request, 50)
                     if m.ride_id == ride.ride_id)
        adapter.cancel(ride)
        with pytest.raises(XARError):
            adapter.book(request, match)

    for index in range(6):
        create(index, rng.uniform(0.0, 300.0))
    first = book(10)
    abort_a_booking()
    adapter.cancel_booking(first[0].request_id, first[0].ride_id)
    adapter.track_all(300.0)
    adapter.checkpoint()

    for index in range(6, 10):
        create(index, rng.uniform(900.0, 1200.0))
    second = book(8)
    adapter.cancel_booking(second[-1].request_id, second[-1].ride_id)
    with pytest.raises(XARError):
        adapter.cancel_booking(second[-1].request_id, second[-1].ride_id)
    abort_a_booking()
    adapter.track_all(1100.0)
    adapter.close()
    return engine


@pytest.fixture(scope="module")
def session(tmp_path_factory, small_city, small_region):
    directory = tmp_path_factory.mktemp("session")
    engine = write_session(str(directory), small_city, small_region)
    return directory, engine


def test_the_pinned_files_recover_to_the_pinned_state(small_region):
    result = recover_engine(small_region, str(DATA / WAL_NAME),
                            str(DATA / CKPT_NAME))
    assert result.checkpoint_seq >= 0 and result.replayed_ops > 0
    assert result.skipped_ops == 2 and result.failed_ops == 0
    assert _fingerprint(result.engine) == RECOVERED_STATE_SHA256


def test_the_session_covers_every_record_shape():
    records = scan_wal(str(DATA / WAL_NAME)).records
    ops = [r for r in records if r.get("kind") == "op"]
    assert {r["op"] for r in ops} == {
        "create", "book", "cancel", "cancel_booking", "track"}
    aborted = {r["aborts"] for r in records if r.get("kind") == "abort"}
    assert sorted(r["op"] for r in ops if r["seq"] in aborted) == [
        "book", "book", "cancel_booking"]
    creates = [r for r in ops if r["op"] == "create"]
    assert {r["shift_end_s"] is None for r in creates} == {True, False}
    assert any(r["request"]["max_detour_m"] is not None
               for r in ops if r["op"] == "book")
    state = read_checkpoint(str(DATA / CKPT_NAME))["engine"]
    for key in ("rides", "completed_rides", "tracked_to", "bookings",
                "rollbacks", "cancellations"):
        assert state[key], key
    for name in (WAL_NAME, CKPT_NAME):
        assert (DATA / name).stat().st_size <= 25_000, name


def test_the_session_writes_the_pinned_bytes(session, small_region):
    directory, live = session
    for name in (WAL_NAME, CKPT_NAME):
        assert (directory / name).read_bytes() == (DATA / name).read_bytes(), \
            name
    recovered = recover_engine(small_region, str(directory / WAL_NAME),
                               str(directory / CKPT_NAME)).engine
    live_state, recovered_state = engine_state(live), engine_state(recovered)
    # The live run burns request ids on searches that never reach the log.
    live_state.pop("counters"), recovered_state.pop("counters")
    assert recovered_state == live_state


def test_checkpoint_restore_checkpoint_is_byte_identical(
    small_region, tmp_path
):
    payload = read_checkpoint(str(DATA / CKPT_NAME))
    engine = XAREngine(small_region)
    restore_engine_state(engine, payload["engine"])
    path = tmp_path / CKPT_NAME
    write_checkpoint(str(path), engine, shard_id=payload["shard_id"],
                     wal_seq=payload["wal_seq"],
                     digest=payload["region_digest"])
    assert path.read_bytes() == (DATA / CKPT_NAME).read_bytes()

