"""Fleet boot: every child is launched before any handshake, and a slot that
cannot boot takes the whole fleet down with it, leaving nothing behind."""

from __future__ import annotations

import os
import socket
import subprocess
from types import SimpleNamespace

import pytest

from repro.exceptions import ServiceError
from repro.service.proc import ProcRouter
from repro.service.proc import supervisor as supervisor_module

from .conftest import fast_config


@pytest.fixture
def launched(monkeypatch):
    """Every child process the supervisor starts (``.children``), and the
    order of launches and accepts (``.events``), recorded at the two seams:
    ``Popen`` and the listener's ``accept``."""
    record = SimpleNamespace(children=[], events=[])
    real_accept = socket.socket.accept

    class RecordingPopen(subprocess.Popen):
        def __init__(self, args, **kwargs):
            record.events.append(("launch", os.path.basename(args[-1])))
            super().__init__(args, **kwargs)
            record.children.append(self)

    def recording_accept(sock):
        record.events.append(
            ("accept", os.path.basename(sock.getsockname())))
        return real_accept(sock)

    monkeypatch.setattr(supervisor_module.subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(socket.socket, "accept", recording_accept)
    return record


def test_every_child_is_launched_before_the_first_accept(
    small_region, saved_region_dir, tmp_path, launched
):
    router = ProcRouter(small_region, fast_config(
        str(tmp_path / "run"), saved_region_dir, n_shards=3))
    try:
        assert router.wait_all_live(30.0)
        kinds = [kind for kind, _name in launched.events]
        assert kinds.count("launch") == 3
        first_accept = kinds.index("accept")
        assert kinds[:first_accept] == ["launch"] * 3, launched.events
    finally:
        router.close()


@pytest.mark.parametrize("failing_slot", [0, 1])
def test_a_slot_that_cannot_boot_leaves_no_child_and_no_socket(
    small_region, saved_region_dir, tmp_path, launched, failing_slot
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    # A regular file where the slot's WAL directory belongs: that child
    # dies opening its WAL, before it ever connects back.  Slot 0 fails
    # while slot 1 is launched but not yet handshaken; slot 1 fails after
    # slot 0 has been adopted.
    (run_dir / f"shard{failing_slot}").write_text("not a directory")
    with pytest.raises(ServiceError, match=f"shard {failing_slot} exited"):
        ProcRouter(small_region, fast_config(
            str(run_dir), saved_region_dir, spawn_timeout_s=10.0))
    assert len(launched.children) == 2
    assert all(child.poll() is not None for child in launched.children)
    assert not [name for name in os.listdir(run_dir)
                if name.endswith(".sock")]
