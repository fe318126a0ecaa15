"""The thread-shard service: N in-process engines behind one façade.

:class:`ShardRouter` is :class:`~repro.service.core.RouterCore` over a
:class:`~repro.service.transport.ThreadTransport`: it partitions the
region's cluster space with a :class:`~repro.service.sharding.ShardMap` and
gives every slot its own :class:`~repro.core.XAREngine` behind a
:class:`~repro.service.shard.ShardWorker` (admission control; every op
runs on its caller's thread).
Routing, fan-out search, the tick watermark, introspection and elastic
resharding are the core's (docs/service.md, docs/resharding.md); this
module only validates the thread-mode options and wires the pieces.

Durability (pass ``durability=DurabilityConfig(...)``) puts a WAL +
checkpoints under every shard: a worker that dies is recovered in place
from its log by the next caller that touches it (or :meth:`supervise`), and
a restart over the same directory recovers every shard — through the
committed ``topology.json`` when the service has resharded.

Reproducibility: each shard worker's RNG is derived from one root seed via
:func:`~repro.service.sharding.derive_seed`, for any stochastic shard policy.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core import XAREngine
from ..discretization import DiscretizedRegion
from ..durability import DurabilityConfig
from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry
from .core import RouterCore
from .merge import merge_matches
from .reshard import ReshardConfig
from .routing import RoutingTable
from .stack import ShardStack, StackConfig
from .transport import ThreadTransport


class ShardRouter(RouterCore):
    """Sharded, concurrent ride-matching service over in-process shards."""

    def __init__(
        self,
        region: DiscretizedRegion,
        n_shards: int,
        *,
        queue_depth: int = 128,
        fanout: str = "local",
        fanout_radius_m: Optional[float] = None,
        optimize_insertion: bool = False,
        seed: int = 0,
        engine_factory: Optional[Callable[[int, int], XAREngine]] = None,
        metrics: Optional[MetricsRegistry] = None,
        durability: Optional[DurabilityConfig] = None,
        reshard: Optional[ReshardConfig] = None,
    ):
        self._check_fanout(fanout)
        if reshard is not None and engine_factory is not None:
            raise ConfigurationError(
                "reshard mode owns ride-id lane assignment and is "
                "incompatible with a custom engine_factory"
            )
        metrics = metrics if metrics is not None else MetricsRegistry()
        table = RoutingTable(
            region, n_shards,
            layout=ThreadTransport.layout,
            directory=durability.directory if durability is not None else None,
            reshard=reshard,
        )
        n_static = table.n_slots
        flush_policy = {} if durability is None else {
            "fsync_every": durability.fsync_every,
            "checkpoint_every": durability.checkpoint_every,
        }
        transport = ThreadTransport(
            region,
            table.specs(),
            StackConfig(
                queue_depth=queue_depth,
                optimize_insertion=optimize_insertion,
                seed=seed,
                **flush_policy,
            ),
            digest=table.digest,
            metrics=metrics,
            engine_factory=(
                (lambda spec: engine_factory(spec.slot, n_static))
                if engine_factory is not None else None
            ),
        )
        super().__init__(
            region, table, transport, label="Sharded", fanout=fanout,
            fanout_radius_m=fanout_radius_m, metrics=metrics,
        )

    @property
    def shards(self) -> List[ShardStack]:
        """The slot table: ``shards[k].engine/.adapter/.worker`` (merged-away
        slots stay as ``active=False`` tombstones)."""
        return self.transport.shards

    def _merge(self, batches, k):
        return merge_matches(batches, k)

    def supervise(self) -> int:
        """Recover every shard whose worker died; returns how many."""
        return self.transport.supervise()
