"""One run of one workload: inputs → set-up → warm-up → measure → check.

``run_workload`` is what ``python -m bench measure`` (the driver contract)
and ``python -m bench run|trace`` all go through.  It returns a plain dict:

``metrics``     name → {"value", "unit", "n"} (end-to-end with tracing off;
                per-layer too when ``trace`` is on)
``checks``      every correctness check with its verdict
``digests``     input and result digests (repeat exactly for a seed)
``correct``     all checks passed
``attempted`` / ``failed``  client ops
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional

from . import inputs, metrics, workloads
from .workloads import Phase


class InputsChanged(RuntimeError):
    """Generated inputs no longer match their pin."""


def run_workload(workload: str, seed: int, seconds: float, *,
                 trace: bool = False, scale: float = 1.0,
                 span_path: Optional[str] = None,
                 with_ladder: bool = True) -> Dict[str, Any]:
    if workload not in workloads.WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (expected one of "
            f"{', '.join(workloads.WORKLOADS)})")
    city, _region = inputs.build_world()
    data = workloads.make_inputs(workload, city, seed, seconds, scale)
    message = inputs.check_pins(
        workload, inputs.pin_key(seed, seconds, scale), data.digests)
    if message is not None:
        raise InputsChanged(message)

    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": trace, "sizes": data.sizes,
        "digests": dict(data.digests),
    }
    if trace:
        from .layers import run_traced

        checks = run_traced(workload, data, seed, seconds, scale, result,
                            span_path=span_path, with_ladder=with_ladder)
    else:
        phase = workloads.run_phase(workload, data, seed, seconds)
        result["metrics"] = end_to_end(workload, phase)
        describe_phase(phase, result)
        checks = phase.checks
    result["checks"] = [
        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
    ]
    result["correct"] = all(c.ok for c in checks)
    return result


def end_to_end(workload: str, phase: Phase) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of a phase's untraced rounds."""
    factor = phase.host.factor()
    out = metrics.op_metrics(
        phase.rounds, clients=workloads.CLIENTS_OF[workload],
        open_loop=workload == "http_open", host_factor=factor)
    out["setup_s"] = metrics.metric(
        statistics.median(phase.setup_times) / phase.setup_host.factor(50.0),
        "s", len(phase.setup_times))
    out["peak_rss_mb"] = metrics.metric(phase.peak_rss_mb, "MB", 1)
    recoveries = phase.extra.get("recovery_s")
    if recoveries:
        out["recovery_s"] = metrics.metric(
            statistics.median(recoveries) / factor, "s", len(recoveries))
    return out


def describe_phase(phase: Phase, result: Dict[str, Any]) -> None:
    rounds = phase.rounds + phase.traced_rounds
    result["digests"]["result"] = phase.digest
    result["attempted"] = sum(log.attempted for log in rounds)
    result["failed"] = sum(log.failed for log in rounds)
    result["stale_books"] = sum(log.stale_books for log in rounds)
    result["measured_s"] = sum(log.duration for log in rounds)
    result["setup_times_s"] = phase.setup_times
