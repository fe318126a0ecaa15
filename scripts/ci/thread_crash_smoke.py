"""Crash-injected durable load smoke over thread shards.

Usage, from any directory::

    python scripts/ci/thread_crash_smoke.py WORKDIR

1. Builds ``WORKDIR/region`` (10 x 20) and runs 300 requests through a
   2-shard durable thread service (WALs under ``WORKDIR/wal``) while a
   rotating shard worker is killed every 60 requests.  Failover must
   recover each crash from the shard's WAL (checkpoint + suffix replay)
   with a clean post-run invariant audit, and the metrics must show that
   failovers and replay actually happened.
2. Offline, ``xar wal-dump --strict`` renders every shard's log (no torn
   tail after a clean close) and ``xar recover --audit`` rebuilds each
   engine with zero invariant violations.
3. A second loadtest over the same WAL directory (a cold restart) must
   recover every shard's state before serving and finish with a clean
   audit.

Writes ``WORKDIR/{crash,restart}_run.json`` and
``WORKDIR/{crash,restart}_metrics.prom``; exits non-zero on any failed
check, a failing command included.
"""

from __future__ import annotations

import json

from _ci import workdir, xar

SHARDS = (0, 1)


def _samples(path):
    from repro.obs import parse_prometheus_text
    return parse_prometheus_text(path.read_text())


def _total(samples, name):
    return sum(v for _labels, v in samples.get(name, []))


def loadtest(region, wal, report, metrics, *args):
    xar("loadtest", region, "--shards", "2", "--workers", "4",
        "--looks", "1", "--json", report, "--durable", wal,
        "--fsync-every", "32", "--checkpoint-every", "50",
        "--metrics-out", metrics, "--max-shed-rate", "0.20", *args)
    outcome = json.loads(report.read_text())
    assert outcome["audit"]["violations"] == 0, outcome["audit"]
    return outcome, _samples(metrics)


def main() -> None:
    work = workdir()
    region, wal = work / "region", work / "wal"
    xar("build-region", region, "--avenues", "10", "--streets", "20")
    wal.mkdir(parents=True, exist_ok=True)

    report, samples = loadtest(
        region, wal, work / "crash_run.json", work / "crash_metrics.prom",
        "--requests", "300", "--prepopulate", "80", "--seed", "13",
        "--crash-every", "60", "--min-match-rate", "0.01")
    assert report["matched"] > 0, "crash run matched nothing"
    failovers = _total(samples, "xar_failovers_total")
    replayed = _total(samples, "xar_recovery_replayed_ops_total")
    assert failovers > 0, "no shard crash was ever recovered"
    assert replayed > 0, "recovery replayed nothing from the WAL"
    print(f"crash run: {failovers:.0f} failovers, "
          f"{replayed:.0f} WAL ops replayed, audit clean")

    for shard in SHARDS:
        log, ckpt = wal / f"shard{shard}.wal", wal / f"shard{shard}.ckpt"
        dump = xar("wal-dump", log, "--strict", capture=True)
        print("\n".join(dump.splitlines()[-3:]))
        xar("recover", region, "--wal", log, "--checkpoint", ckpt, "--audit")

    _report, samples = loadtest(
        region, wal, work / "restart_run.json", work / "restart_metrics.prom",
        "--requests", "150", "--prepopulate", "0", "--seed", "17")
    replayed = _total(samples, "xar_recovery_replayed_ops_total")
    assert replayed > 0, "cold restart recovered nothing"
    print(f"cold restart: {replayed:.0f} WAL ops replayed, audit clean")


if __name__ == "__main__":
    main()
