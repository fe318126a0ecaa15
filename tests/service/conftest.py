"""Service-layer fixtures: routers are cheap (engines share the region)."""

from __future__ import annotations

import pytest

from repro.discretization import save_region
from repro.durability import DurabilityConfig
from repro.exceptions import UnknownRideError
from repro.service import ProcRouter, ReshardConfig, ShardRouter

from .proc.conftest import fast_config


@pytest.fixture
def service(region):
    """A fresh 2-shard service per test, closed afterwards."""
    router = ShardRouter(region, 2, seed=11)
    yield router
    router.close()


@pytest.fixture
def service4(region):
    router = ShardRouter(region, 4, seed=11)
    yield router
    router.close()


# ----------------------------------------------------------------------
# Transport fixture: one reshard-capable durable service, thread or proc
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def saved_region(region, tmp_path_factory):
    """``region`` on disk (process shards load their geometry from it)."""
    path = str(tmp_path_factory.mktemp("service-region") / "region")
    save_region(region, path)
    return path


class Fleet:
    """Opens the service under test on one transport.

    ``open(directory)`` builds a durable, reshard-enabled 2-shard service
    over ``directory`` (pass ``max_shards=None`` for a static topology);
    reopening the same directory is a restart.  ``holds(service, slot,
    ride_id)`` asks the *shard itself* — not the routing table — whether
    it holds a ride.
    """

    def __init__(self, kind, region, saved_region):
        self.kind = kind
        self.region = region
        self._saved_region = saved_region

    def open(self, directory, *, max_shards=6):
        reshard = (
            ReshardConfig(max_shards=max_shards)
            if max_shards is not None else None
        )
        if self.kind == "thread":
            return ShardRouter(
                self.region, 2, seed=11, queue_depth=1024, fanout="all",
                durability=DurabilityConfig(
                    directory=str(directory), fsync_every=4,
                    checkpoint_every=0,
                ),
                reshard=reshard,
            )
        service = ProcRouter(
            self.region,
            fast_config(str(directory), self._saved_region,
                        queue_depth=1024),
            fanout="all",
            reshard=reshard,
        )
        assert service.wait_all_live(30.0)
        return service

    @staticmethod
    def holds(service, slot, ride_id):
        try:
            service.transport.call("find_ride", slot, None, ride_id)
        except UnknownRideError:
            return False
        return True


@pytest.fixture(params=["thread", "proc"])
def fleet(request, region, saved_region):
    return Fleet(request.param, region, saved_region)
