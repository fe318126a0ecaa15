"""Append-only, CRC-framed, fsync-batched write-ahead log.

One WAL file per shard engine.  Every mutating operation (create / book /
cancel / track tick) is logged **before** it is applied — log-before-apply —
so any state the engine reached is reconstructible by redoing the log, and
an op interrupted mid-flight (crash between append and apply) is *completed*
by recovery rather than lost.

Frame format (little-endian)::

    +----------------+----------------+----------------------+
    | length: u32 LE | crc32: u32 LE  | payload (JSON, UTF-8) |
    +----------------+----------------+----------------------+

The CRC covers the payload bytes.  Record kinds:

* ``header`` — first frame of every log: format version, shard identity
  (id + ride-id lane) and the discretization build's content digest
  (:func:`~repro.discretization.region_digest`), so a log can never be
  replayed onto a different region;
* ``op`` — one mutating operation with a monotonically increasing ``seq``;
  checkpoints record the last ``seq`` they contain, making the replay
  suffix a simple ``seq >`` filter;
* ``abort`` — a logged op later failed cleanly inside the engine (an
  :class:`~repro.exceptions.XARError`, e.g. a stale match).  Replay skips
  the op it names and re-records the rollback, so deterministic failures
  stay failures even if the environment that caused them is gone.

Durability batching: every append is *written and flushed* to the OS
immediately (so a simulated crash that merely stops the process loses
nothing), but ``fsync`` — the expensive disk barrier — runs every
``fsync_every`` appends and on close.  Torn tails from a real power cut are
detected on open by the CRC framing and truncated to the last complete
record.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..exceptions import DurabilityError, WALCorruptionError
from ..obs import MetricsRegistry

#: Frame prefix: payload length + payload CRC32, both little-endian u32.
_FRAME = struct.Struct("<II")

WAL_VERSION = 1


def _encode(record: Dict[str, Any]) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class WalFrame:
    """One decoded frame (or the undecodable tail), for scans and dumps."""

    offset: int
    record: Optional[Dict[str, Any]]
    crc_ok: bool
    #: Why decoding stopped here, when it did ("" for a good frame).
    error: str = ""


@dataclass
class WalScan:
    """Everything a recovery needs to know about an existing log."""

    header: Optional[Dict[str, Any]]
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Byte offset of the first byte *after* the last complete record.
    good_length: int = 0
    #: Bytes past ``good_length`` (0 == the log ended on a frame boundary).
    torn_bytes: int = 0
    torn_reason: str = ""

    @property
    def last_seq(self) -> int:
        seqs = [int(r["seq"]) for r in self.records if "seq" in r]
        return max(seqs) if seqs else -1


def iter_frames(path: str) -> Iterator[WalFrame]:
    """Tolerant frame iterator: yields good frames, then the bad tail (once).

    Unlike :func:`scan_wal` this never raises on damage — it is the
    ``wal-dump`` back-end and must render corrupt logs, not reject them.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            yield WalFrame(offset, None, False, "truncated frame header")
            return
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            yield WalFrame(offset, None, False,
                           f"truncated payload ({len(data) - start}/{length} bytes)")
            return
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            yield WalFrame(offset, None, False, "crc mismatch")
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            yield WalFrame(offset, None, False, f"undecodable payload: {exc}")
            return
        yield WalFrame(offset, record, True)
        offset = end


def scan_wal(path: str) -> WalScan:
    """Decode a WAL: header + op/abort records + torn-tail measurement.

    The first structurally bad frame marks the torn tail; everything before
    it is returned, everything after is measured as ``torn_bytes``.  A
    missing or malformed *header* (very first frame) is not a torn tail —
    the file is not a WAL at all — and raises
    :class:`~repro.exceptions.WALCorruptionError`.
    """
    scan = WalScan(header=None)
    size = os.path.getsize(path)
    for frame in iter_frames(path):
        if not frame.crc_ok:
            if scan.header is None:
                raise WALCorruptionError(
                    f"{path}: no valid header frame ({frame.error})"
                )
            scan.torn_reason = frame.error
            break
        record = frame.record
        if scan.header is None:
            if record.get("kind") != "header":
                raise WALCorruptionError(
                    f"{path}: first frame is {record.get('kind')!r}, "
                    "expected the WAL header"
                )
            if record.get("version") != WAL_VERSION:
                raise WALCorruptionError(
                    f"{path}: unsupported WAL version {record.get('version')!r}"
                )
            scan.header = record
        else:
            scan.records.append(record)
        scan.good_length = frame.offset + _FRAME.size + len(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        )
    scan.torn_bytes = size - scan.good_length
    return scan


class WriteAheadLog:
    """The per-shard append side of the log.

    Use :meth:`open` — it creates a fresh log (writing the header frame) or
    appends to an existing one after validating its header and truncating
    any torn tail.
    """

    def __init__(
        self,
        path: str,
        handle,
        next_seq: int,
        *,
        fsync_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[Dict[str, str]] = None,
    ):
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every!r}")
        self.path = path
        self._handle = handle
        self._next_seq = next_seq
        self.fsync_every = fsync_every
        self._appends_since_sync = 0
        self._closed = False
        self._m_appends = self._m_fsyncs = self._m_bytes = None
        if metrics is not None:
            labels = dict(metrics_labels or {})
            label_names = tuple(sorted(labels))
            self._m_appends = metrics.counter(
                "xar_wal_appends_total",
                "Records appended to the write-ahead log",
                labels=label_names,
            ).labels(**labels)
            self._m_fsyncs = metrics.counter(
                "xar_wal_fsyncs_total",
                "fsync barriers issued by the write-ahead log",
                labels=label_names,
            ).labels(**labels)
            self._m_bytes = metrics.counter(
                "xar_wal_bytes_total",
                "Bytes appended to the write-ahead log (framing included)",
                labels=label_names,
            ).labels(**labels)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        *,
        shard_id: int = 0,
        ride_id_start: int = 1,
        ride_id_step: int = 1,
        region_digest: str = "",
        fsync_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[Dict[str, str]] = None,
    ) -> "WriteAheadLog":
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            scan = scan_wal(path)
            header = scan.header
            if region_digest and header.get("region_digest") not in ("", region_digest):
                raise DurabilityError(
                    f"{path}: WAL was written for a different discretization "
                    f"build (digest {str(header.get('region_digest'))[:12]}…, "
                    f"expected {region_digest[:12]}…)"
                )
            if (header.get("shard_id"), header.get("ride_id_start"),
                    header.get("ride_id_step")) != (
                    shard_id, ride_id_start, ride_id_step):
                raise DurabilityError(
                    f"{path}: WAL belongs to another shard lane "
                    f"(shard {header.get('shard_id')}, "
                    f"lane {header.get('ride_id_start')}"
                    f"+k*{header.get('ride_id_step')})"
                )
            if scan.torn_bytes:
                # Truncate the torn tail so appends resume on a frame
                # boundary; the count is recovery's torn-tail metric source.
                with open(path, "r+b") as trunc:
                    trunc.truncate(scan.good_length)
            handle = open(path, "ab")
            next_seq = scan.last_seq + 1
        else:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            handle = open(path, "ab")
            header = {
                "kind": "header",
                "version": WAL_VERSION,
                "shard_id": shard_id,
                "ride_id_start": ride_id_start,
                "ride_id_step": ride_id_step,
                "region_digest": region_digest,
            }
            handle.write(_encode(header))
            handle.flush()
            os.fsync(handle.fileno())
            next_seq = 0
        return cls(
            path,
            handle,
            next_seq,
            fsync_every=fsync_every,
            metrics=metrics,
            metrics_labels=metrics_labels,
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, record: Dict[str, Any]) -> int:
        """Frame, write and flush one record; returns its assigned ``seq``.

        The write always reaches the OS (flush); the disk barrier (fsync)
        is batched every ``fsync_every`` appends.
        """
        if self._closed:
            raise DurabilityError(f"{self.path}: WAL is closed")
        seq = self._next_seq
        self._next_seq += 1
        framed = _encode({**record, "seq": seq})
        self._handle.write(framed)
        self._handle.flush()
        self._appends_since_sync += 1
        if self._m_appends is not None:
            self._m_appends.inc()
            self._m_bytes.inc(len(framed))
        if self._appends_since_sync >= self.fsync_every:
            self.sync()
        return seq

    def sync(self) -> None:
        """Issue the fsync barrier now (no-op when nothing is pending)."""
        if self._closed or self._appends_since_sync == 0:
            return
        os.fsync(self._handle.fileno())
        self._appends_since_sync = 0
        if self._m_fsyncs is not None:
            self._m_fsyncs.inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._handle.close()

    def abandon(self) -> None:
        """Drop the handle without syncing — simulates dying mid-write.

        Appends were flushed to the OS, so the bytes survive (this is a
        process death, not a power cut); only the batched fsync is skipped.
        """
        self._closed = True
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def tail_size(path: str) -> Tuple[int, int]:
    """(total bytes, torn-tail bytes) of a log — cheap health probe."""
    scan = scan_wal(path)
    return scan.good_length + scan.torn_bytes, scan.torn_bytes
