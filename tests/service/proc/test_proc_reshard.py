"""Process-only reshard choreography.

Split, merge, lane budget, restart and the phase-by-phase crash matrix run
on both transports from one body in ``tests/service/test_reshard.py``.
What is left here only makes sense for real processes: draining a split's
victim by SIGKILL, reopening run directories whose manifest was written by
an older build (``dir`` entries), and the offline ``xar reshard verify``
proof over a process run directory that has been split *and* merged.
"""

from __future__ import annotations

import json
import os

from repro.cli import main as xar
from repro.durability import DurabilityConfig, read_topology, topology_path
from repro.service import ReshardConfig, ShardRouter
from repro.service.proc import ProcRouter

from .conftest import fast_config, seed_fleet


def _reshard_router(small_region, saved_region_dir, run_dir, *, max_shards=6):
    service = ProcRouter(
        small_region,
        fast_config(str(run_dir), saved_region_dir, fsync_every=1),
        reshard=ReshardConfig(max_shards=max_shards),
    )
    assert service.wait_all_live(30.0)
    return service


def _ledger(service):
    return {(r.request_id, r.ride_id) for r in service.bookings()}


def _live(service):
    return {r.ride_id for r in service.active_rides()}


def _rewrite_manifest(directory, edit):
    """Hand-edit the committed manifest in place (plain JSON, as an
    operator — or an older build — would have left it)."""
    path = topology_path(str(directory))
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def test_proc_split_with_sigkill_drain_loses_nothing(
    small_region, saved_region_dir, small_city, tmp_path
):
    """``force_stop`` SIGKILLs the victim instead of draining it: the split
    must reshard off the synced WAL prefix exactly like crash recovery
    (fsync_every=1, so every acknowledged op is in that prefix)."""
    with _reshard_router(
        small_region, saved_region_dir, tmp_path / "run"
    ) as service:
        booked = seed_fleet(service, small_city)
        assert booked > 0
        before = _ledger(service)
        live = _live(service)

        service.split_shard(0, force_stop=True)

        assert service.wait_all_live(30.0)
        assert service.shard_map.epoch == 1
        assert _ledger(service) == before
        assert _live(service) == live
        assert service.audit()["violations"] == 0


def test_reshard_verify_passes_on_a_proc_dir_after_split_and_merge(
    small_region, saved_region_dir, small_city, tmp_path, capsys
):
    run_dir = tmp_path / "run"
    with _reshard_router(small_region, saved_region_dir, run_dir) as service:
        assert seed_fleet(service, small_city) > 0
        new_slot = service.split_shard(0)
        seed_fleet(service, small_city, n_creates=6, n_books=10)
        service.merge_shards(1, new_slot)
        assert sorted(service.active_slot_ids()) == [0, 1]
        # A merged-away slot does not hold the fleet back.
        assert service.wait_all_live(5.0)
        assert service.stats()["states"][new_slot] == "stopped"
        n_bookings = len(service.bookings())

    # One manifest format: relative wal/ckpt paths, no per-slot directory key.
    manifest = read_topology(topology_path(str(run_dir)))
    assert manifest["epoch"] == 2
    for entry in manifest["slots"]:
        assert "dir" not in entry
        assert ("wal" in entry and "ckpt" in entry) == bool(entry["active"])
        if entry["active"]:
            assert os.path.exists(os.path.join(run_dir, entry["wal"]))

    assert xar(["reshard", "verify", saved_region_dir, str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "verify ok" in out and f"{n_bookings} bookings" in out
    assert xar(["reshard", "status", str(run_dir)]) == 0
    assert "merge redirects" in capsys.readouterr().out


def test_parent_format_proc_manifest_still_opens(
    small_region, saved_region_dir, small_city, tmp_path, capsys
):
    """A run directory resharded by the previous build names a ``dir`` per
    resharded slot and nothing for untouched ones; it must open, serve and
    verify unchanged."""
    run_dir = tmp_path / "run"
    with _reshard_router(small_region, saved_region_dir, run_dir) as service:
        seed_fleet(service, small_city)
        service.split_shard(0)
        before = _ledger(service)
        live = _live(service)

    def to_parent_format(manifest):
        for entry in manifest["slots"]:
            folder = os.path.dirname(entry.pop("wal"))
            del entry["ckpt"]
            if folder != f"shard{entry['slot']}":  # untouched: no key at all
                entry["dir"] = folder

    _rewrite_manifest(run_dir, to_parent_format)
    with open(topology_path(str(run_dir)), encoding="utf-8") as handle:
        raw = json.load(handle)
    assert [("dir" in e, "wal" in e) for e in raw["slots"]] == [
        (True, False), (False, False), (True, False)
    ]

    assert xar(["reshard", "verify", saved_region_dir, str(run_dir)]) == 0
    assert "verify ok" in capsys.readouterr().out
    with _reshard_router(small_region, saved_region_dir, run_dir) as reopened:
        assert reopened.shard_map.epoch == 1
        assert sorted(reopened.active_slot_ids()) == [0, 1, 2]
        assert _ledger(reopened) == before
        assert _live(reopened) == live
        assert reopened.audit()["violations"] == 0
        # The next reshard commits the unified format.
        reopened.merge_shards(0, 2)
    manifest = read_topology(topology_path(str(run_dir)))
    assert all("dir" not in entry for entry in manifest["slots"])


def test_parent_format_thread_manifest_still_opens(
    small_region, saved_region_dir, small_city, tmp_path, capsys
):
    """The previous build's thread-mode manifest: flat generation-suffixed
    ``wal``/``ckpt`` names for active slots, written out by hand here."""
    def open_router():
        return ShardRouter(
            small_region, 2, seed=11, fanout="all", queue_depth=1024,
            durability=DurabilityConfig(directory=str(tmp_path), fsync_every=1),
            reshard=ReshardConfig(max_shards=6),
        )

    with open_router() as router:
        seed_fleet(router, small_city)
        router.split_shard(0)
        before = _ledger(router)
        live = _live(router)
        assignment = router.shard_map.assignment()
        homes = dict(router.table.ride_homes)

    _rewrite_manifest(tmp_path, lambda manifest: (
        manifest.clear(),
        manifest.update({
            "format": "xar.topology", "version": 1, "epoch": 1,
            "lane_modulus": 6, "region_digest": "",
            "slots": [
                {"slot": 0, "active": True, "lane": 0,
                 "wal": "shard0.g1.wal", "ckpt": "shard0.g1.ckpt"},
                {"slot": 1, "active": True, "lane": 1,
                 "wal": "shard1.wal", "ckpt": "shard1.ckpt"},
                {"slot": 2, "active": True, "lane": 2,
                 "wal": "shard2.g1.wal", "ckpt": "shard2.g1.ckpt"},
            ],
            "assignment": assignment,
            "lane_owner": [0, 1, 2, 0, 0, 0],
            "next_lane": 3,
            "redirect": {},
            "ride_homes": {str(r): s for r, s in homes.items()},
        }),
    ))

    assert xar(["reshard", "verify", saved_region_dir, str(tmp_path)]) == 0
    assert "verify ok" in capsys.readouterr().out
    with open_router() as reopened:
        assert sorted(reopened.active_slot_ids()) == [0, 1, 2]
        assert _ledger(reopened) == before
        assert _live(reopened) == live
        assert reopened.audit()["violations"] == 0


def test_reshard_verify_names_a_ride_the_tables_misplace(
    small_region, saved_region_dir, small_city, tmp_path, capsys
):
    """Ownership is resolved through the committed routing tables: a
    ``ride_homes`` entry pointing a ride at another slot fails the proof."""
    with ShardRouter(
        small_region, 2, seed=11, fanout="all", queue_depth=1024,
        durability=DurabilityConfig(directory=str(tmp_path), fsync_every=1),
        reshard=ReshardConfig(max_shards=6),
    ) as router:
        seed_fleet(router, small_city)
        router.split_shard(0)
        ride_id = min(_live(router))
        home = router.table.shard_of_ride(ride_id)
        elsewhere = next(slot for slot in router.active_slot_ids()
                         if slot != home)

    assert xar(["reshard", "verify", saved_region_dir, str(tmp_path)]) == 0
    capsys.readouterr()
    _rewrite_manifest(tmp_path, lambda manifest: manifest["ride_homes"]
                      .update({str(ride_id): elsewhere}))
    assert xar(["reshard", "verify", saved_region_dir, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert (f"ride {ride_id} recovered in slot {home} but the routing "
            f"tables assign it to slot {elsewhere}") in err
