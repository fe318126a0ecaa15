"""``run``, ``trace``, ``compare`` and ``baseline``: the human-facing commands.

``run`` and ``trace`` execute every workload in its own ``measure``
subprocess (a fresh interpreter per workload, so ``peak_rss_mb`` is that
workload's own and a crash cannot take the others' numbers with it) and
assemble one JSON document with a common envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

from . import (
    ROOT,
    compare as comparing,
    contract,
    inputs,
    metrics,
    stacks,
    workloads,
)

OP_UNITS = {
    "op": "one client call that returned: search, book, create or track_all",
    "request": "one rider's visit: looks + decision search + book-or-create",
    "ops_per_s": "ops per second (one client: 1 / mean best-of-rounds op "
                 "latency; thread_service: ops per wall-second of the median "
                 "round; http_open: ops completed per wall-second)",
    "latency": "milliseconds per op; one client: best of rounds on the quiet "
               "reference host; several clients: as measured, median round "
               "(closed loop) or best round (open loop, from when the op "
               "was due)",
}


def _spawn_measure(workload: str, args: argparse.Namespace, trace: bool,
                   extra: List[str]) -> Dict[str, Any]:
    """One ``measure`` subprocess; returns its detail document."""
    stacks.OUT_DIR.mkdir(exist_ok=True)
    handle, detail = tempfile.mkstemp(suffix=".json", dir=stacks.OUT_DIR)
    os.close(handle)
    try:
        command = [
            sys.executable, "-m", "bench", "measure", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scale", str(args.scale), "--trace", "1" if trace else "0",
            "--detail", detail, *extra,
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        if os.path.getsize(detail) == 0:
            return {"workload": workload, "correct": False, "metrics": {},
                    "checks": [], "error": done.stderr.strip()[-2000:]}
        with open(detail, encoding="utf-8") as source:
            return json.load(source)
    finally:
        os.unlink(detail)


def _envelope(args: argparse.Namespace, kind: str) -> Dict[str, Any]:
    return {
        "schema": "xar-bench/1", "kind": kind, **metrics.host_envelope(),
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "city": f"manhattan_city({inputs.CITY_AVENUES}, {inputs.CITY_STREETS})",
        "config": "XARConfig.validated()", "top_k": inputs.TOP_K,
        "units": OP_UNITS, "why": workloads.WHY,
        "flush_policy": "OS-flush per WAL append, fsync every "
                        f"{stacks.FSYNC_EVERY} appends, checkpoint every "
                        f"{stacks.CHECKPOINT_EVERY} mutations (process-crash "
                        "durability, not power loss)",
    }


def _print_result(workload: str, result: Dict[str, Any], names) -> None:
    print(f"\n== {workload} ==")
    if "error" in result:
        print(result["error"])
        return
    for name in names:
        value = result["metrics"].get(name)
        if value is None:
            print(f"  {name:<40} n/a")
        else:
            print(f"  {name:<40} {value['value']:>14.6g} {value['unit']:<6}"
                  f" n={value['n']}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")


def _finish(document: Dict[str, Any], out: str) -> int:
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    correct = all(r.get("correct") for r in document["workloads"].values())
    print(f"\nwrote {out}; correctness: {'ok' if correct else 'FAILED'}")
    return 0 if correct else 1


def _run(args: argparse.Namespace) -> int:
    document = _envelope(args, "run")
    document["workloads"] = {}
    for workload in args.workloads:
        result = _spawn_measure(workload, args, False, [])
        document["workloads"][workload] = result
        _print_result(workload, result, metrics.END_TO_END)
    return _finish(document, args.out)


def _trace(args: argparse.Namespace) -> int:
    from .layers import PER_LAYER

    document = _envelope(args, "trace")
    document["workloads"] = {}
    for index, workload in enumerate(args.workloads):
        spans = str(stacks.OUT_DIR / f"trace-{workload}.jsonl")
        # The ladder is the same for every workload: run it once, last.
        extra = ["--spans", spans]
        if index < len(args.workloads) - 1:
            extra.append("--no-ladder")
        result = _spawn_measure(workload, args, True, extra)
        document["workloads"][workload] = result
        _print_result(workload, result, PER_LAYER)
    return _finish(document, args.out)


def _compare(args: argparse.Namespace) -> int:
    base = args.base or args.files[:1]
    new = args.new or args.files[1:]
    if not base or not new:
        print("compare needs a base and a new side: "
              "`compare BASE.json NEW.json` or --base ... --new ...",
              file=sys.stderr)
        return 2
    rows, status = comparing.compare(base, new)
    print(comparing.render(rows))
    return status


def _baseline(args: argparse.Namespace) -> int:
    """Assemble BASELINE.json (sets of runs + per-metric spread) and
    PINS.json (input digests per seed) from BENCH.json files."""
    sets = []
    pins = inputs.load_pins()
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        sets.append(document)
        key = inputs.pin_key(document["seed"], document["seconds"],
                             document["scale"])
        for workload, result in document["workloads"].items():
            digests = {k: v for k, v in result.get("digests", {}).items()
                       if k != "result"}
            pins.setdefault(workload, {})[key] = digests

    def summary(vals: List[float]) -> Dict[str, Any]:
        median = statistics.median(vals)
        return {
            "median": median, "min": min(vals), "max": max(vals),
            "n": len(vals),
            "range_over_median": (max(vals) - min(vals)) / median
            if median else 0.0,
        }

    spread = {
        workload: {name: summary(vals) for name, vals in per_metric.items()
                   if name in metrics.END_TO_END}
        for workload, per_metric in comparing.load_values(args.files).items()
    }
    baseline = {"schema": "xar-bench-baseline/1", "sets": sets,
                "spread": spread}
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(inputs.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(sets)} sets) and {inputs.PINS_PATH}")
    return 0


def add_commands(sub) -> None:
    def common(parser: argparse.ArgumentParser, out: str) -> None:
        parser.add_argument("--seed", type=int, default=2024)
        parser.add_argument("--seconds", type=float,
                            default=float(contract.RUN_SECONDS),
                            help="measured phase per workload")
        parser.add_argument("--scale", type=float, default=1.0)
        parser.add_argument("--workloads", nargs="+",
                            default=list(workloads.WORKLOADS),
                            choices=workloads.WORKLOADS)
        parser.add_argument("--out", default=str(stacks.OUT_DIR / out))

    run = sub.add_parser(
        "run", help="every end-to-end metric on every workload, tracing off")
    common(run, "BENCH.json")
    run.set_defaults(fn=_run)

    trace = sub.add_parser(
        "trace", help="per-layer metrics, span files and the ladder")
    common(trace, "BENCH-trace.json")
    trace.set_defaults(fn=_trace)

    compare = sub.add_parser(
        "compare", help="verdicts of NEW against BASE under the bounds")
    compare.add_argument("files", nargs="*", help="BASE.json NEW.json")
    compare.add_argument("--base", nargs="+")
    compare.add_argument("--new", nargs="+")
    compare.set_defaults(fn=_compare)

    baseline = sub.add_parser(
        "baseline", help="assemble BASELINE.json + PINS.json from runs")
    baseline.add_argument("files", nargs="+")
    baseline.add_argument(
        "--out", default=str(inputs.PINS_PATH.parent / "BASELINE.json"))
    baseline.set_defaults(fn=_baseline)
