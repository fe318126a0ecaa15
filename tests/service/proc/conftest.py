"""Process-shard fixtures.

Spawning a fleet costs real fork+recover time, so the saved region is
session-scoped (children load it from disk) and supervision timings are
tightened far below production defaults — tests drive failure detection,
not wall clocks.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.request import RideRequest
from repro.discretization import save_region
from repro.exceptions import XARError
from repro.service.proc import ProcRouter, SupervisorConfig


@pytest.fixture(scope="session")
def saved_region_dir(small_region, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("proc-region") / "region")
    save_region(small_region, path)
    return path


def fast_config(run_dir, region_dir, **overrides):
    """Supervision config with test-speed timings."""
    kwargs = dict(
        n_shards=2,
        run_dir=run_dir,
        region_dir=region_dir,
        heartbeat_interval_s=0.05,
        hang_timeout_s=1.0,
        check_interval_s=0.02,
        restart_backoff_base_s=0.05,
        restart_backoff_cap_s=0.2,
        stability_reset_s=30.0,
        quarantine_cooldown_s=1.0,
        fsync_every=4,
        seed=11,
    )
    kwargs.update(overrides)
    return SupervisorConfig(**kwargs)


@pytest.fixture
def proc_service(small_region, saved_region_dir, tmp_path):
    router = ProcRouter(
        small_region, fast_config(str(tmp_path / "run"), saved_region_dir)
    )
    assert router.wait_all_live(30.0)
    yield router
    router.close()


def await_until(predicate, timeout_s=15.0, what="condition"):
    """Poll ``predicate`` until it holds; fail the test past ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def make_request(region, request_id, src, dst):
    return RideRequest(
        request_id=request_id,
        source=src,
        destination=dst,
        window_start_s=0.0,
        window_end_s=3600.0,
        walk_threshold_m=region.config.default_walk_threshold_m,
    )


def seed_fleet(service, city, rng=None, *, n_creates=12, n_books=30):
    """Deterministic supply + bookings over the fleet; returns booked."""
    rng = rng or random.Random(5)
    nodes = list(city.nodes())
    for _ in range(n_creates):
        a, b = rng.sample(nodes, 2)
        try:
            service.create(city.position(a), city.position(b),
                           rng.uniform(0.0, 300.0), 2, None)
        except XARError:
            continue
    booked = 0
    request_id = 90_000
    for _ in range(n_books):
        a, b = rng.sample(nodes, 2)
        request_id += 1
        request = make_request(service.region, request_id,
                               city.position(a), city.position(b))
        try:
            matches = service.search(request)
        except XARError:
            continue
        if not matches:
            continue
        try:
            service.book(request, matches[0])
        except XARError:
            continue
        booked += 1
    return booked
