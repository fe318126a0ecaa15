"""Crash-injected multi-process load smoke.

Usage, from any directory::

    python scripts/ci/proc_crash_smoke.py WORKDIR

Builds ``WORKDIR/region`` (10 x 20) and runs 300 requests through 2
supervised *subprocess* shards while a rotating child is SIGKILLed every 60
requests (``WORKDIR/procwal`` holds their WALs).  The supervisor must
respawn each victim through WAL recovery; the run must end with a clean
invariant audit, and the metrics must prove restarts actually happened.
Writes ``WORKDIR/proc_run.json`` and ``WORKDIR/proc_metrics.prom``; exits
non-zero on any failed check.
"""

from __future__ import annotations

import json

from _ci import workdir, xar


def main() -> None:
    work = workdir()
    region, wal = work / "region", work / "procwal"
    report_path, metrics_path = work / "proc_run.json", work / "proc_metrics.prom"
    xar("build-region", region, "--avenues", "10", "--streets", "20")
    wal.mkdir(parents=True, exist_ok=True)
    xar("loadtest", region, "--procs", "--shards", "2", "--workers", "4",
        "--requests", "300", "--prepopulate", "80", "--looks", "1",
        "--seed", "13", "--crash-every", "60", "--durable", wal,
        "--fsync-every", "32", "--json", report_path,
        "--metrics-out", metrics_path,
        "--max-shed-rate", "0.20", "--min-match-rate", "0.01")

    report = json.loads(report_path.read_text())
    assert report["audit"]["violations"] == 0, report["audit"]
    assert report["matched"] > 0, "proc run matched nothing"

    from repro.obs import parse_prometheus_text
    samples = parse_prometheus_text(metrics_path.read_text())
    restarts = sum(v for _l, v in samples.get("xar_proc_restarts_total", []))
    crashes = sum(
        v for labels, v in samples.get("xar_proc_failures_total", [])
        if labels["kind"] == "crash"
    )
    assert restarts > 0, "no shard was ever restarted"
    assert crashes > 0, "no failure was classified as a crash"
    print(f"proc run: {crashes:.0f} crashes, {restarts:.0f} restarts, "
          f"audit clean")


if __name__ == "__main__":
    main()
