"""Sharded concurrent ride-matching service.

One op table (:mod:`~repro.service.ops`: every operation's wire shape,
routing kind and retry rule, declared once), one router core
(:mod:`~repro.service.core`) over a routing table
(:mod:`~repro.service.routing`), a shard transport — in-process shards
(:mod:`~repro.service.transport`) or supervised subprocesses
(:mod:`~repro.service.proc`) — and one reshard machine
(:mod:`~repro.service.machine`); every shard, wherever it runs, is the one
stack :mod:`~repro.service.stack` builds.

The serving layer in front of the engines: a :class:`ShardRouter` partitions
the region's cluster space into N shards (in the spirit of *When Hashing Met
Matching*'s spatio-temporal partitioning), each owning an independent
:class:`~repro.core.XAREngine` behind a bounded admission budget; every op
runs on its caller's thread.  Cross-shard searches fan out and k-way-merge
by the engine's ranking key; a shard whose budget is full sheds load
explicitly; tracking ticks are batched and
amortized per shard.  :class:`LoadGenerator` drives the whole thing closed-
loop at a target QPS and reports throughput plus p50/p95/p99 latency per
operation against :class:`ServiceSLO` objectives.

The router implements the simulator's ``EngineAdapter`` protocol, so every
existing harness (replay simulator, fault injector, differential fuzzer)
can drive a sharded fleet unchanged.

Process mode (:mod:`~repro.service.proc`) promotes each shard to a
supervised *subprocess* — real fault domains, no shared GIL — behind the
same adapter surface (:class:`ProcRouter`), with a threaded HTTP gateway
(:class:`Gateway`) and client (:class:`HttpServiceClient`) on top.
"""

from .._lazy import lazy_exports

# Resolved on first use, so a shard process importing its own stack does not
# load the load generator, the gateway or the supervisor.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".proc.gateway": ("Gateway", "GatewayConfig"),
    ".proc.client": ("HttpServiceClient",),
    ".loadgen": ("LoadGenConfig", "LoadGenerator", "LoadReport",
                 "skew_hotspot"),
    ".merge": ("merge_matches", "rank_key"),
    ".proc.router": ("ProcRouter",),
    ".reshard": ("ReshardAction", "ReshardConfig", "ReshardController"),
    ".router": ("ShardRouter",),
    ".shard": ("ShardStats", "ShardWorker"),
    ".sharding": ("ShardMap", "derive_seed", "shard_local_requests"),
    ".proc.supervisor": ("ShardSupervisor", "SupervisorConfig"),
    ".slo": ("ServiceSLO",),
})
