"""A run that fails mid-way leaves no shard process and no scratch dir."""

from __future__ import annotations

import os

import pytest

from bench import stacks, workloads
from bench.runner import run_workload


def _worker_processes():
    """Shard worker processes whose config lives under bench/out."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue
        if "repro.service.proc.worker" in cmdline and str(stacks.OUT_DIR) in cmdline:
            found.append(int(pid))
    return found


def _scratch_dirs():
    if not stacks.OUT_DIR.exists():
        return []
    return [p for p in stacks.OUT_DIR.iterdir()
            if p.is_dir() and p.name.startswith("r")]


@pytest.mark.parametrize("workload", ("http_open", "thread_service"))
def test_failure_after_setup_tears_everything_down(monkeypatch, workload):
    before = set(_scratch_dirs())
    spawned = []

    def explode(stack, data):
        spawned.extend(stack.child_pids())
        raise RuntimeError("injected failure after set-up")

    monkeypatch.setattr(workloads, "_warm_service", explode)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_workload(workload, seed=5, seconds=0.5, scale=0.05)
    if workload == "http_open":
        assert spawned, "the fleet never came up"
    assert _worker_processes() == []
    assert set(_scratch_dirs()) == before
