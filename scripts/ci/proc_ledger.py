"""Exactly-once booking ledger across crashes.

Usage, from any directory, after ``proc_crash_smoke.py WORKDIR``::

    python scripts/ci/proc_ledger.py WORKDIR

Replays every shard's WAL under ``WORKDIR/procwal`` offline and proves no
booking was double-applied by a crash/retry race: request ids are unique
within and across shards, and each rebuilt engine passes the strict
``xar recover --audit``.  ``xar wal-dump --strict`` certifies clean tails
after the drain.  Exits non-zero on any failed check.
"""

from __future__ import annotations

from collections import Counter

from _ci import workdir, xar

SHARDS = (0, 1)


def main() -> None:
    work = workdir()
    region_dir, wal_dir = work / "region", work / "procwal"

    def files(shard):
        folder = wal_dir / f"shard{shard}"
        return folder / f"shard{shard}.wal", folder / f"shard{shard}.ckpt"

    for shard in SHARDS:
        wal, ckpt = files(shard)
        dump = xar("wal-dump", wal, "--strict", capture=True)
        print("\n".join(dump.splitlines()[-3:]))
        xar("recover", region_dir, "--wal", wal, "--checkpoint", ckpt,
            "--audit")

    from repro.discretization import load_region
    from repro.durability import recover_engine

    region = load_region(str(region_dir))
    applied = Counter()
    for shard in SHARDS:
        wal, ckpt = files(shard)
        result = recover_engine(region, str(wal), str(ckpt))
        for booking in result.engine.bookings:
            applied[(booking.request_id, booking.ride_id)] += 1
    doubled = {key: n for key, n in applied.items() if n > 1}
    assert not doubled, f"double-applied bookings: {doubled}"
    assert applied, "crash run booked nothing"
    print(f"ledger: {len(applied)} bookings, all exactly-once")


if __name__ == "__main__":
    main()
