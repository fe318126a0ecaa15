"""ProcRouter: the EngineAdapter-shaped façade over a process-shard fleet.

:class:`ProcRouter` is :class:`~repro.service.core.RouterCore` over the
UNIX-socket transport (:class:`~repro.service.proc.supervisor.ShardSupervisor`):
exactly the thread-mode routing rules, fan-out merge, tick watermark and
reshard machine — but every shard call crosses a process boundary through
:meth:`~repro.service.proc.supervisor.ProcShard.rpc`, and every shard is a
real fault domain.  What that changes for callers:

* a *quarantined* shard sheds like a full queue (``ShardQuarantinedError``
  is a ``ShardOverloadError``), so fan-out searches serve around a flapping
  shard; a shard that is mid-restart fails searches fast and makes
  mutations wait, bounded by their deadline;
* ``book`` and ``cancel_booking`` carry an idempotency key, so one whose
  connection died mid-call is retried safely: the recovered shard's ledger
  (rebuilt by WAL replay) answers the duplicate with the original record;
* a reshard can drain its source by SIGKILL (``split_shard(force_stop=True)``)
  and still carve correctly off the synced WAL prefix.

Anything that can drive one engine — the load generator, the differential
harness's workloads, the CLI — can drive the process fleet unchanged.
"""

from __future__ import annotations

import os
from typing import Optional

from ...discretization import DiscretizedRegion
from ...obs import MetricsRegistry
from ..core import RouterCore
from ..merge import merge_matches
from ..reshard import ReshardConfig
from ..routing import RoutingTable
from .supervisor import ShardSupervisor, SupervisorConfig


class ProcRouter(RouterCore):
    """Sharded ride-matching service over subprocess shards."""

    def __init__(
        self,
        region: DiscretizedRegion,
        config: Optional[SupervisorConfig] = None,
        *,
        fanout: str = "local",
        fanout_radius_m: Optional[float] = None,
        search_deadline_s: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        reshard: Optional[ReshardConfig] = None,
    ):
        self._check_fanout(fanout)
        config = config or SupervisorConfig()
        metrics = metrics if metrics is not None else MetricsRegistry()
        table = RoutingTable(
            region, config.n_shards,
            layout=ShardSupervisor.layout,
            directory=os.path.abspath(config.run_dir),
            reshard=reshard,
        )
        #: The fleet (and the core's transport): ``supervisor.shards[k]`` is
        #: slot *k*'s process handle, connection pool and state machine.
        self.supervisor = ShardSupervisor(
            region, config, table.specs(), metrics,
            search_deadline_s=search_deadline_s,
        )
        super().__init__(
            region, table, self.supervisor, label="Proc", fanout=fanout,
            fanout_radius_m=fanout_radius_m, metrics=metrics,
        )

    def _merge(self, batches, k):
        return merge_matches(batches, k)

    def split_shard(self, shard_id: int, *, fault_hook=None,
                    force_stop: bool = False) -> int:
        """As :meth:`RouterCore.split_shard`; ``force_stop`` SIGKILLs the
        victim instead of draining it, so the split reshards off the synced
        WAL prefix exactly like crash recovery."""
        return self._reshard_machine().split(
            shard_id, fault_hook=fault_hook, force=force_stop
        )

    def wait_all_live(self, timeout_s: float = 30.0) -> bool:
        return self.supervisor.wait_all_live(timeout_s)
