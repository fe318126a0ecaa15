"""Durable state: write-ahead log, checkpoints, crash recovery.

The durability layer makes a shard engine's state survive process death:

* :mod:`~repro.durability.wal` — append-only, CRC-framed, fsync-batched
  write-ahead log of every mutating operation;
* :mod:`~repro.durability.checkpoint` — versioned engine snapshots stamped
  with the discretization build's content digest;
* :mod:`~repro.durability.recovery` — deterministic replay (checkpoint +
  WAL suffix) reconstructing an engine that matches the pre-crash one
  exactly (the differential harness asserts fingerprint equality);
* :mod:`~repro.durability.records` — every persisted record shape (WAL ops,
  aborts, ledger rows), declared once;
* :mod:`~repro.durability.adapter` — the log-before-apply decorator that
  wires the above into the adapter stack, plus the service-level
  :class:`DurabilityConfig`.
"""

from .adapter import DurabilityConfig, DurableAdapter
from .checkpoint import (
    CHECKPOINT_VERSION,
    engine_state,
    read_checkpoint,
    restore_engine_state,
    write_checkpoint,
    write_checkpoint_state,
)
from .recovery import RecoveryResult, recover_engine, replay_record
from .reshard import (
    TOPOLOGY_VERSION,
    merge_engine_states,
    read_topology,
    split_engine_state,
    topology_path,
    write_topology,
)
from .wal import (
    WAL_VERSION,
    WalFrame,
    WalScan,
    WriteAheadLog,
    iter_frames,
    scan_wal,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "DurabilityConfig",
    "DurableAdapter",
    "RecoveryResult",
    "TOPOLOGY_VERSION",
    "WAL_VERSION",
    "WalFrame",
    "WalScan",
    "WriteAheadLog",
    "engine_state",
    "iter_frames",
    "merge_engine_states",
    "read_checkpoint",
    "read_topology",
    "recover_engine",
    "replay_record",
    "restore_engine_state",
    "scan_wal",
    "split_engine_state",
    "topology_path",
    "write_checkpoint",
    "write_checkpoint_state",
    "write_topology",
]
