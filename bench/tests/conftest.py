"""Smoke suite for the harness: ``PYTHONPATH=src python -m pytest bench/tests -q``.

Outside tier-1's ``testpaths``.  Everything runs at a small fraction of the
pinned sizes; the traced runs are made once per module and shared.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: Fraction of the pinned sizes the smoke runs use.
SCALE = 0.1
SECONDS = 0.9


@pytest.fixture(scope="session")
def traced_results(tmp_path_factory):
    """One traced run per workload (the ladder rides on the last)."""
    from bench import workloads
    from bench.runner import run_workload

    out = {}
    spans_dir = tmp_path_factory.mktemp("spans")
    for index, workload in enumerate(workloads.WORKLOADS):
        span_path = spans_dir / f"{workload}.jsonl"
        result = run_workload(
            workload, seed=5, seconds=SECONDS, trace=True, scale=SCALE,
            span_path=str(span_path),
            with_ladder=index == len(workloads.WORKLOADS) - 1)
        result["span_path"] = str(span_path)
        out[workload] = result
    return out


@pytest.fixture(scope="session")
def spans_of():
    def load(result):
        with open(result["span_path"], encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    return load
