"""Process-isolated shards: supervision tree, RPC, HTTP gateway.

This package promotes :class:`~repro.service.shard.ShardWorker` from a
thread to a *subprocess*, giving every shard a real fault domain (a wedged
or corrupted worker can no longer take the service down) and an escape from
the GIL (shard searches run on separate interpreters, so the fleet scales
with cores instead of capping out near the 4-thread ceiling):

* :mod:`~repro.service.proc.rpc` — length-prefixed, CRC-checked binary
  RPC frames over UNIX sockets: request ids, per-op deadlines, retry
  policy with jittered backoff, idempotency keys;
* :mod:`~repro.service.proc.worker` — the child entry point: builds the
  shard's stack (recovering it from its WAL), then serves ops + heartbeats;
* :mod:`~repro.service.proc.supervisor` — :class:`ShardSupervisor`, the
  UNIX-socket shard transport: spawns each shard with its own WAL dir,
  watches liveness (heartbeats + exit codes), classifies failures (crash /
  hang / repeated-crash) and restarts through crash recovery with
  exponential backoff, quarantining shards that flap;
* :mod:`~repro.service.proc.router` — :class:`ProcRouter`, the router core
  over that transport (the thread router's routing, merge, degradation and
  resharding, verbatim);
* :mod:`~repro.service.proc.gateway` — a threaded HTTP/JSON gateway (a
  thread per connection) with admission control and deadline-based load
  shedding;
* :mod:`~repro.service.proc.client` — the HTTP client adapter that lets
  the load generator drive a remote gateway like a real client fleet.
"""

from ..._lazy import lazy_exports

# Resolved on first use: the shard child imports ``worker`` through this
# package and must not load the gateway, client or supervisor with it.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gateway": ("Gateway", "GatewayConfig"),
    ".client": ("HttpServiceClient",),
    ".router": ("ProcRouter",),
    ".supervisor": ("ProcShard", "ShardSupervisor", "SupervisorConfig"),
    ".rpc": ("RetryPolicy", "read_frame", "write_frame"),
})
