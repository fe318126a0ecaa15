"""Verdict-only bench runs on an unpinned seed.

Usage, from any directory::

    python scripts/ci/bench_verdict.py WORKLOAD [WORKLOAD ...]

Each workload runs once as ``python -m bench measure --workload WORKLOAD
--seed 11 --seconds 3 --trace 0``, its output echoed.  The JSON line the
run ends with must say ``"correct": true`` and ``"failed": 0``: a clean
invariant audit, a complete crash recovery where the workload has one, and
an exact booked+created ledger.  The timings of a 3 s run mean nothing;
only the verdict is read.  Exits 1 when any workload fails it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 11


def verdict(workload: str) -> bool:
    command = [sys.executable, "-m", "bench", "measure",
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "3", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload} seed {SEED}: no result line "
              f"(exit {done.returncode})")
        return False
    if line.get("correct") is True and line.get("failed") == 0:
        print(f"{workload} seed {SEED}: correct, 0 failed of "
              f"{line['attempted']}")
        return True
    print(f"{workload} seed {SEED}: FAILED {line}")
    return False


def main(workloads) -> int:
    if not workloads:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = [verdict(workload) for workload in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
