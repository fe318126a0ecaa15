"""The six deployments the benchmark drives, from one engine to HTTP.

Each rung wraps the one below it in exactly one more layer, so the ladder's
``rung − rung below`` is that layer's cost:

========  ==========================================================
engine    ``XARAdapter(XAREngine)`` — the paper's runtime unit
durable   + ``DurableAdapter`` / WAL (OS-flush per append, fsync/64)
thread1   + ``ShardRouter`` with one shard (router, worker hand-off)
thread2   + a second shard (fan-out, merge, GIL contention)
proc2     shards become processes (``ProcRouter``, RPC frames, sockets)
http      + ``Gateway`` and ``HttpServiceClient`` (HTTP/JSON, executor)
========  ==========================================================

Durability flush policy (every durable rung): each append is flushed to the
OS, ``fsync`` every 64 appends — acknowledged mutations survive a process
crash, not a power cut.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.core import XAREngine
from repro.discretization import DiscretizedRegion, region_digest, save_region
from repro.durability import (
    DurabilityConfig,
    DurableAdapter,
    WriteAheadLog,
    recover_engine,
)
from repro.resilience import InvariantAuditor
from repro.service import (
    Gateway,
    HttpServiceClient,
    ProcRouter,
    ShardRouter,
    SupervisorConfig,
)
from repro.sim.adapters import XARAdapter

RUNGS = ("engine", "durable", "thread1", "thread2", "proc2", "http")
FSYNC_EVERY = 64
#: Mutations between automatic checkpoints on the durable service stacks:
#: recovery replays at most this many ops per shard past the checkpoint,
#: and the periodic write is the stall ``book_p95_ms`` is there to catch.
CHECKPOINT_EVERY = 256

OUT_DIR = pathlib.Path(__file__).parent / "out"


def scratch_dir() -> str:
    """A fresh directory under ``bench/out`` (inside the checkout; short,
    because shard sockets live in it and UNIX socket paths cap at ~107
    bytes)."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="r", dir=OUT_DIR)


class Stack:
    """One built deployment: the client-facing target plus its teardown."""

    def __init__(self, rung: str, region: DiscretizedRegion):
        self.rung = rung
        self.region = region
        self.target: Any = None
        self.workdir: Optional[str] = None
        #: Engines reachable in-process (empty for proc2/http).
        self.engines: List[XAREngine] = []
        self.router: Any = None
        self.gateway: Optional[Gateway] = None
        self.durability: Optional[DurabilityConfig] = None
        #: Seconds spent bringing child processes up (proc2/http only).
        self.spawn_s = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    def audit_violations(self) -> int:
        """Invariant-auditor violations across the deployment (no healing)."""
        if self.router is not None:
            return int(self.router.audit(heal=False)["violations"])
        return sum(
            len(InvariantAuditor(engine).audit().violations)
            for engine in self.engines
        )

    def child_pids(self) -> List[int]:
        if self.router is None or not hasattr(self.router, "supervisor"):
            return []
        return [
            shard.process.pid
            for shard in self.router.supervisor.shards
            if shard.process is not None and shard.process.poll() is None
        ]

    def abandon(self) -> None:
        """Process-death teardown of a thread stack: stop the workers and
        drop every WAL handle *without* the final fsync barrier."""
        for shard in self.router.shards:
            shard.worker.close()
            adapter = shard.adapter
            while adapter is not None and not isinstance(adapter, DurableAdapter):
                adapter = getattr(adapter, "inner", None)
            if adapter is not None and not adapter.wal.closed:
                adapter.abandon()
        self._closed = True

    def close(self) -> None:
        """Stop everything this stack started and remove its directory."""
        if not self._closed:
            self._closed = True
            try:
                if self.gateway is not None:
                    self.gateway.shutdown(drain_timeout_s=2.0)
                if self.target is not None and hasattr(self.target, "close"):
                    self.target.close()
            finally:
                if self.router is not None:
                    self.router.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def build_stack(rung: str, region: DiscretizedRegion, *,
                fanout: str = "local", seed: int = 0) -> Stack:
    """Bring one rung up, empty.  Raises with everything torn down."""
    if rung not in RUNGS:
        raise ValueError(f"unknown rung {rung!r} (expected one of {RUNGS})")
    stack = Stack(rung, region)
    try:
        _build(stack, rung, region, fanout, seed)
    except BaseException:
        stack.close()
        raise
    return stack


def _build(stack: Stack, rung: str, region: DiscretizedRegion,
           fanout: str, seed: int) -> None:
    if rung == "engine":
        engine = XAREngine(region)
        stack.engines = [engine]
        stack.target = XARAdapter(engine)
        return
    stack.workdir = scratch_dir()
    if rung == "durable":
        engine = XAREngine(region)
        digest = region_digest(region)
        wal = WriteAheadLog.open(
            os.path.join(stack.workdir, "shard0.wal"),
            region_digest=digest, fsync_every=FSYNC_EVERY,
        )
        stack.engines = [engine]
        stack.target = DurableAdapter(
            XARAdapter(engine), wal,
            checkpoint_path=os.path.join(stack.workdir, "shard0.ckpt"),
            checkpoint_every=CHECKPOINT_EVERY, digest=digest,
        )
        return
    if rung in ("thread1", "thread2"):
        stack.durability = DurabilityConfig(
            directory=stack.workdir, fsync_every=FSYNC_EVERY,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        router = ShardRouter(
            region, 1 if rung == "thread1" else 2,
            fanout=fanout, seed=seed, durability=stack.durability,
        )
        stack.router = router
        stack.engines = [shard.engine for shard in router.shards]
        stack.target = router
        return
    # proc2 / http: two shard processes behind a ProcRouter.
    started = time.perf_counter()
    region_dir = os.path.join(stack.workdir, "region")
    save_region(region, region_dir)
    router = ProcRouter(
        region,
        SupervisorConfig(
            n_shards=2, run_dir=stack.workdir, region_dir=region_dir,
            fsync_every=FSYNC_EVERY, checkpoint_every=CHECKPOINT_EVERY,
            seed=seed,
        ),
        fanout=fanout,
    )
    stack.router = router
    if not router.wait_all_live(60.0):
        raise RuntimeError("process fleet failed to boot within 60 s")
    stack.spawn_s = time.perf_counter() - started
    if rung == "proc2":
        stack.target = router
        return
    stack.gateway = Gateway(router)
    base_url = stack.gateway.start_background()
    stack.target = HttpServiceClient(base_url, region)


def recover_thread_stack(stack: Stack) -> Dict[str, Any]:
    """After :meth:`Stack.abandon`: rebuild every shard engine from its
    checkpoint + WAL with ``recover_engine`` and audit it.  Returns the
    recovered engines and what recovery did."""
    config = stack.durability
    engines, results = [], []
    for shard_id in range(len(stack.router.shards)):
        result = recover_engine(
            stack.region,
            config.wal_path(shard_id),
            config.checkpoint_path(shard_id),
        )
        engines.append(result.engine)
        results.append(result)
    violations = sum(
        len(InvariantAuditor(engine).audit().violations) for engine in engines
    )
    return {"engines": engines, "results": results, "violations": violations}
