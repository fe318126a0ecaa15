"""``bench compare``: per workload × metric verdicts against the bounds.

Each side is one or more ``BENCH.json`` files (or a ``BASELINE.json``, which
already holds several sets of runs).  Per workload and end-to-end metric the
table shows the base median, the new median, their ratio, the bound, and

``ok``          the new median is not worse than the base by more than the
                bound;
``worse``       it is;
``unresolved``  the base's own run-to-run spread (distance between its first
                and third quartile, as a share of its median) exceeds the
                bound, so this comparison cannot tell.

Exit status is non-zero on any ``worse`` and on a higher ``failed_frac``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import ABSOLUTE_BOUNDS, END_TO_END, WORKLOAD_METRICS, bound as bound_of


def load_values(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> every value the files hold for it."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for run_set in _run_sets(document):
            for workload, result in run_set.get("workloads", {}).items():
                per_metric = out.setdefault(workload, {})
                for name, value in result.get("metrics", {}).items():
                    per_metric.setdefault(name, []).append(float(value["value"]))
    return out


def _run_sets(document: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """A BENCH.json is one set of runs; a BASELINE.json holds several."""
    if "sets" in document:
        return document["sets"]
    return [document]


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """(Q3 − Q1) ÷ median, or None with fewer than two values."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(workload: str, name: str, base: Sequence[float],
            new: Sequence[float]) -> Dict[str, Any]:
    _unit, better = END_TO_END[name]
    bound = bound_of(workload, name)
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    absolute = ABSOLUTE_BOUNDS.get(name)
    if absolute is not None:
        worse_by = new_median - base_median
        worse = worse_by > absolute
        ratio = None
        bound_text = f"+{absolute:g} abs"
    else:
        ratio = new_median / base_median if base_median else float("inf")
        worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
        worse = worse_by > bound
        bound_text = f"{bound:.0%}"
    spread = quartile_spread(base)
    state = "worse" if worse else "ok"
    if absolute is None and spread is not None and spread > bound:
        state = "unresolved"
    return {
        "metric": name, "base": base_median, "new": new_median,
        "ratio": ratio, "bound": bound_text, "base_spread": spread,
        "n_base": len(base), "n_new": len(new), "verdict": state,
    }


def compare(base_paths: Sequence[str], new_paths: Sequence[str]) -> Tuple[List[Dict[str, Any]], int]:
    base = load_values(base_paths)
    new = load_values(new_paths)
    rows: List[Dict[str, Any]] = []
    status = 0
    for workload, names in WORKLOAD_METRICS.items():
        for name in names:
            base_values = base.get(workload, {}).get(name)
            new_values = new.get(workload, {}).get(name)
            if not base_values or not new_values:
                continue
            row = verdict(workload, name, base_values, new_values)
            row["workload"] = workload
            rows.append(row)
            if row["verdict"] == "worse":
                status = 1
            if name == "failed_frac" and row["new"] > row["base"]:
                status = 1
    return rows, status


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<15} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>10} {'spread':>7}  verdict"
    ]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        spread = ("-" if row["base_spread"] is None
                  else f"{row['base_spread']:.1%}")
        lines.append(
            f"{row['workload']:<15} {row['metric']:<15} {row['base']:>12.4f} "
            f"{row['new']:>12.4f} {ratio:>9} {row['bound']:>10} {spread:>7}  "
            f"{row['verdict']}"
            f" (n={row['n_base']}/{row['n_new']})"
        )
    return "\n".join(lines)
