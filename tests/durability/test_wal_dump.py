"""``xar wal-dump`` pins: every record is legible, and ``--strict`` severity
tracks actual damage.

Each op line is printed from the op's WAL declaration, so no logged op falls
through to a raw JSON blob.  Empty and header-only logs are healthy young
shards (a process-mode fleet produces them on every cold spawn), so
``--strict`` exits 0 and the dump says explicitly which case it found.  A
torn tail is damage and still exits 1.
"""

from __future__ import annotations

import pathlib
import struct

from repro.cli import main
from repro.durability import WriteAheadLog, scan_wal

#: A pinned session holding every logged op and three aborts.
SESSION_WAL = pathlib.Path(__file__).parent / "data" / "session.wal"


def _header_only_wal(tmp_path, digest, name="young.wal"):
    path = str(tmp_path / name)
    wal = WriteAheadLog.open(
        path, shard_id=0, ride_id_start=1, ride_id_step=1,
        region_digest=digest, fsync_every=1,
    )
    wal.close()
    return path


def test_strict_exits_zero_on_an_empty_wal(tmp_path, capsys):
    path = tmp_path / "empty.wal"
    path.write_bytes(b"")
    assert main(["wal-dump", str(path), "--strict"]) == 0
    assert "empty WAL" in capsys.readouterr().out


def test_strict_exits_zero_on_a_header_only_wal(tmp_path, digest, capsys):
    path = _header_only_wal(tmp_path, digest)
    assert main(["wal-dump", str(path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "header only" in out
    assert "empty WAL" not in out


def test_strict_still_fails_on_a_torn_tail(tmp_path, digest, capsys):
    path = _header_only_wal(tmp_path, digest, "torn.wal")
    with open(path, "ab") as handle:
        # A frame whose CRC cannot match its payload: a torn tail.
        handle.write(struct.pack("<II", 4, 0xDEADBEEF) + b"junk")
    assert main(["wal-dump", str(path), "--strict"]) == 1
    assert "TORN TAIL" in capsys.readouterr().err


def test_every_record_names_its_op_and_ids(capsys):
    records = [r for r in scan_wal(str(SESSION_WAL)).records
               if r["kind"] != "header"]
    assert main(["wal-dump", str(SESSION_WAL), "--strict"]) == 0
    lines = {
        int(line.split()[1][len("seq="):]): line
        for line in capsys.readouterr().out.splitlines()
        if not line.split()[1].startswith("seq=-")
    }
    assert sorted(lines) == [r["seq"] for r in records]
    for record in records:
        line = lines[record["seq"]]
        assert "{" not in line, line
        if record["kind"] == "abort":
            expected = [f"aborts={record['aborts']}"]
        else:
            nested = {**record.get("request", {}), **record.get("match", {})}
            expected = [f" {record['op']} "] + [
                f"{key}={value}" for key, value in {**record, **nested}.items()
                if key.endswith("_id") and value is not None
            ]
            if record["op"] == "track":
                expected.append(f"now_s={record['now_s']}")
        for needle in expected:
            assert needle in line, (needle, line)
    assert {r.get("op") for r in records} >= {
        "create", "book", "cancel", "cancel_booking", "track"}
