"""Process mode places its fleet: slot *k*'s child runs on one CPU.

The supervisor launches slot *k*'s child on ``sorted(allowed)[k % n]`` of
the launching thread's unbound mask, so the child and every thread it
starts (numpy's BLAS pool included) are bound from birth.  A respawned
generation and a reshard successor keep their slot's CPU; the launching
thread keeps its own mask; a refused binding launches the child unbound
and changes no answer.
"""

from __future__ import annotations

import errno
import os
import signal

import pytest

from repro.service import ReshardConfig
from repro.service.proc import ProcRouter
from repro.service.proc.supervisor import LIVE

from .conftest import await_until, fast_config, make_request, seed_fleet

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least two allowed CPUs",
)

pytestmark = needs_affinity


def _mask(pid=0):
    return frozenset(os.sched_getaffinity(pid))


def _slot_cpu(slot):
    cpus = sorted(_mask())
    return frozenset({cpus[slot % len(cpus)]})


def _thread_masks(pid):
    """The affinity of every thread of process ``pid``."""
    masks = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            masks[int(tid)] = _mask(int(tid))
        except OSError:  # the thread exited since the listing
            continue
    return masks


def _fleet(small_region, saved_region_dir, run_dir, **kwargs):
    router = ProcRouter(
        small_region, fast_config(str(run_dir), saved_region_dir), **kwargs)
    assert router.wait_all_live(30.0)
    return router


def _answers(service, city, region):
    """Ride ids created, bookings made and the ranked search answers of a
    deterministic op mix."""
    booked = seed_fleet(service, city)
    searches = [
        [m.ride_id for m in service.search(make_request(
            region, 80_000 + i, city.position(i), city.position(i + 10)))]
        for i in range(8)
    ]
    return (sorted(r.ride_id for r in service.active_rides()), booked,
            sorted((b.request_id, b.ride_id) for b in service.bookings()),
            searches)


def test_every_child_and_every_thread_it_runs_is_on_its_slot_cpu(
    small_region, saved_region_dir, tmp_path
):
    before = _mask()
    with _fleet(small_region, saved_region_dir, tmp_path / "run") as service:
        assert _mask() == before  # the launching thread kept its mask
        shards = service.supervisor.shards
        assert len(shards) == 2
        for slot, shard in enumerate(shards):
            pid = shard.process.pid
            assert _mask(pid) == _slot_cpu(slot)
            # The child starts its two connection threads and the heartbeat
            # right after the handshake that made it live.
            await_until(lambda: len(_thread_masks(pid)) >= 4,
                        what="the child's serving threads")
            assert set(_thread_masks(pid).values()) == {_slot_cpu(slot)}


def test_a_respawned_generation_and_a_reshard_successor_keep_the_slot_cpu(
    small_region, saved_region_dir, small_city, tmp_path
):
    with _fleet(small_region, saved_region_dir, tmp_path / "run",
                reshard=ReshardConfig(max_shards=6)) as service:
        seed_fleet(service, small_city)
        supervisor = service.supervisor
        victim = supervisor.shards[0]
        first_pid = victim.process.pid
        os.kill(first_pid, signal.SIGKILL)
        await_until(lambda: victim.state == LIVE and victim.restarts == 1,
                    what="the respawn")
        assert victim.process.pid != first_pid
        assert _mask(victim.process.pid) == _slot_cpu(0)

        new_slot = service.split_shard(0)
        assert service.wait_all_live(30.0)
        for slot in (0, new_slot):
            shard = supervisor.shards[slot]
            assert _mask(shard.process.pid) == _slot_cpu(slot)
            assert set(_thread_masks(shard.process.pid).values()) == {
                _slot_cpu(slot)}
        assert service.audit()["violations"] == 0


def test_a_refused_binding_launches_unbound_and_changes_no_answer(
    small_region, saved_region_dir, small_city, tmp_path, monkeypatch
):
    unbound = _mask()
    with _fleet(small_region, saved_region_dir,
                tmp_path / "placed") as service:
        expected = _answers(service, small_city, small_region)

    attempts = []

    def refuse(pid, mask):
        attempts.append(pid)
        raise OSError(errno.EPERM, "affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    with _fleet(small_region, saved_region_dir,
                tmp_path / "unbound") as service:
        assert attempts  # placement was tried and refused
        for shard in service.supervisor.shards:
            assert _mask(shard.process.pid) == unbound
        assert _answers(service, small_city, small_region) == expected
    assert _mask() == unbound
