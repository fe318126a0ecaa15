"""Command line: ``python -m bench measure|run|trace|compare``."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional


def _measure(args: argparse.Namespace) -> int:
    """The driver contract: one run, one JSON object on the last line."""
    from . import contract
    from .runner import InputsChanged, run_workload

    try:
        result = run_workload(args.workload, args.seed, float(args.seconds),
                              trace=bool(args.trace), scale=args.scale,
                              span_path=args.spans,
                              with_ladder=not args.no_ladder)
    except InputsChanged as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True, default=str)
    for check in result["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}",
                  file=sys.stderr)
    print(json.dumps(contract.last_line(result, bool(args.trace))))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="XAR benchmark harness: four pinned workloads, one "
                    "latency ladder from engine to HTTP.")
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser(
        "measure", help="one run of one workload (driver contract)")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--scale", type=float, default=1.0,
                         help="multiply every pinned size (tests use < 1)")
    measure.add_argument("--detail", default=None,
                         help="also write the full result (n, digests, "
                              "checks) to this JSON file")
    measure.add_argument("--spans", default=None,
                         help="with --trace 1: write the spans here (JSONL)")
    measure.add_argument("--no-ladder", action="store_true",
                         help="with --trace 1: skip the six-rung ladder "
                              "(its metrics read 0)")
    measure.set_defaults(fn=_measure)

    from . import cli

    cli.add_commands(sub)
    args = parser.parse_args(argv)
    # A terminated run must still tear its stacks down (shard processes,
    # scratch directories): turn SIGTERM into an exception that unwinds.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
