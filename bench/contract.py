"""The driver contract: which metrics the last output line carries.

``BENCHMARK.json`` at the repository root lists the same names; the smoke
suite checks that the two agree.
"""

from __future__ import annotations

from typing import Any, Dict

from . import metrics

#: With ``--trace 0``: the end-to-end metrics every workload defines.
END_TO_END = metrics.UNIVERSAL
#: Measured phase the driver asks for, seconds.
RUN_SECONDS = 12


def document() -> Dict[str, Any]:
    """What BENCHMARK.json must say (the smoke suite compares)."""
    from . import workloads
    from .layers import PER_LAYER

    return {
        "command": ["python3", "-m", "bench", "measure"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.WHY.items()],
        "end_to_end": [
            {"name": name, "unit": metrics.END_TO_END[name][0],
             "better": metrics.END_TO_END[name][1],
             "bound": metrics.contract_bound(name)}
            for name in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def last_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if trace:
        from .layers import PER_LAYER

        names = tuple(PER_LAYER)
    else:
        names = END_TO_END
    measured = result["metrics"]
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": measured[name]["value"],
                   "unit": measured[name]["unit"]}
            for name in names
        },
    }
