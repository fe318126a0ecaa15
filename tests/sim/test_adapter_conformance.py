"""EngineAdapter conformance: every adapter satisfies the full protocol.

The protocol is ``@runtime_checkable``, so ``isinstance`` verifies the whole
simulator-facing surface — including the introspection methods
(``rollback_count``/``index_stats``) that had previously drifted between the
XAR and T-Share adapters.  Decorators (fault injector, WAL, batch window,
the differential harness's crashable target) conform through
:class:`~repro.sim.adapters.DelegatingAdapter`, the sharded service routers
conform directly, and the HTTP client through the op table.
"""

from __future__ import annotations

import pytest

from repro.baselines import TShareEngine
from repro.batch import BatchConfig, BatchMatcher
from repro.core import XAREngine
from repro.durability import DurableAdapter, WriteAheadLog
from repro.service import (
    HttpServiceClient,
    ProcRouter,
    ShardRouter,
    SupervisorConfig,
)
from repro.sim import (
    EngineAdapter,
    FaultInjectingAdapter,
    TShareAdapter,
    XARAdapter,
    default_fault_policies,
)
from repro.sim.adapters import DelegatingAdapter
from repro.verify import OracleAdapter, OracleEngine
from repro.verify.differential import _DurableTarget

#: Every protocol member an adapter must expose.
PROTOCOL_MEMBERS = (
    "name",
    "create",
    "search",
    "book",
    "track_all",
    "cancel",
    "cancel_booking",
    "active_rides",
    "rollback_count",
    "index_stats",
)


@pytest.fixture
def adapters(region, tmp_path):
    xar = XARAdapter(XAREngine(region))
    tshare = TShareAdapter(TShareEngine(region.network))
    faulty = FaultInjectingAdapter(
        XARAdapter(XAREngine(region)), default_fault_policies(), seed=1
    )
    oracle = OracleAdapter(OracleEngine(region))
    batch = BatchMatcher(
        XARAdapter(XAREngine(region)), BatchConfig(window_s=0.0, max_batch=4)
    )
    durable = DurableAdapter(
        XARAdapter(XAREngine(region)),
        WriteAheadLog.open(str(tmp_path / "shard0.wal")),
    )
    crashable = _DurableTarget(region, str(tmp_path / "crashable"))
    yield {
        "XARAdapter": xar,
        "TShareAdapter": tshare,
        "FaultInjectingAdapter": faulty,
        "OracleAdapter": oracle,
        "BatchMatcher": batch,
        "DurableAdapter": durable,
        "_DurableTarget": crashable,
    }
    batch.close()
    durable.close()
    crashable.close()


def test_every_adapter_satisfies_the_protocol(adapters):
    for name, adapter in adapters.items():
        assert isinstance(adapter, EngineAdapter), name


def test_every_protocol_member_is_present_and_callable(adapters):
    for name, adapter in adapters.items():
        for member in PROTOCOL_MEMBERS:
            value = getattr(adapter, member)
            if member != "name":
                assert callable(value), f"{name}.{member} is not callable"


def test_introspection_parity_returns_usable_values(adapters):
    """The drift that motivated the protocol: both introspection methods
    answer on every adapter, not just XAR's."""
    for name, adapter in adapters.items():
        assert adapter.rollback_count() == 0, name
        stats = adapter.index_stats()
        assert isinstance(stats, dict) and "rides" in stats, name


def test_shard_router_conforms(region):
    with ShardRouter(region, 2, seed=5) as service:
        assert isinstance(service, EngineAdapter)
        assert service.rollback_count() == 0
        assert service.index_stats()["rides"] == 0


def test_proc_router_and_http_client_conform(region, tmp_path):
    """The remote façades: the HTTP client's surface is grown from the op
    table, so a protocol member without a route fails here."""
    client = HttpServiceClient("http://127.0.0.1:9", region)
    assert isinstance(client, EngineAdapter)
    config = SupervisorConfig(n_shards=1, run_dir=str(tmp_path / "run"))
    with ProcRouter(region, config) as service:
        assert isinstance(service, EngineAdapter)
        assert service.rollback_count() == 0
        assert service.index_stats()["rides"] == 0


def test_decorators_only_override_what_they_change():
    """Every decorator is a DelegatingAdapter, and none re-declares a plain
    forward: what a subclass defines, it changes."""
    overridden = {
        FaultInjectingAdapter: {"track_all"},
        DurableAdapter: {"create", "book", "cancel", "cancel_booking",
                         "track_all"},
        BatchMatcher: {"name", "search", "book"},
        _DurableTarget: {"book"},
    }
    for cls, expected in overridden.items():
        assert issubclass(cls, DelegatingAdapter), cls
        assert {m for m in PROTOCOL_MEMBERS if m in vars(cls)} == expected, cls


def test_create_accepts_seats_and_detour_kwargs(adapters, region):
    """The extended ``create`` signature is uniform across every adapter:
    XAR-family adapters honour both knobs; T-Share accepts and ignores the
    detour budget (its scheduling model has no such constraint)."""
    src = region.network.position(0)
    dst = region.network.position(region.network.node_count - 1)
    for name, adapter in adapters.items():
        ride = adapter.create(src, dst, 0.0, seats=2, detour_limit_m=1500.0)
        assert ride is not None, name
        if name != "TShareAdapter":
            assert ride.seats_available == 2, name
            assert ride.detour_limit_m == 1500.0, name


def test_non_adapter_rejected():
    class NotAnAdapter:
        name = "nope"

        def search(self, request, k=None):
            return []

    assert not isinstance(NotAnAdapter(), EngineAdapter)
