"""``bench compare`` verdicts and input pinning."""

from __future__ import annotations

import json

import pytest

from bench import compare, inputs
from bench.__main__ import main


def _bench(path, **values):
    metrics = {
        "search_p50_ms": {"value": 1.0, "unit": "ms", "n": 10},
        "ops_per_s": {"value": 100.0, "unit": "1/s", "n": 10},
        "failed_frac": {"value": 0.0, "unit": "frac", "n": 10},
    }
    for name, value in values.items():
        metrics[name]["value"] = value
    path.write_text(json.dumps(
        {"workloads": {"engine_search": {"metrics": metrics}}}))
    return str(path)


def test_verdicts(tmp_path):
    base = [_bench(tmp_path / f"a{i}.json", search_p50_ms=v)
            for i, v in enumerate((1.00, 1.01, 0.99, 1.00))]
    same = _bench(tmp_path / "b.json", search_p50_ms=1.05, ops_per_s=95.0)
    rows, status = compare.compare(base, [same])
    assert status == 0
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "search_p50_ms": "ok", "ops_per_s": "ok", "failed_frac": "ok"}
    slower = _bench(tmp_path / "c.json", search_p50_ms=1.2, ops_per_s=80.0)
    rows, status = compare.compare(base, [slower])
    assert status == 1
    assert {r["metric"]: r["verdict"] for r in rows}["search_p50_ms"] == "worse"
    assert {r["metric"]: r["verdict"] for r in rows}["ops_per_s"] == "worse"
    # Ratios are given with their base.
    row = next(r for r in rows if r["metric"] == "search_p50_ms")
    assert row["base"] == 1.0 and abs(row["ratio"] - 1.2) < 1e-9


def test_noisy_base_is_unresolved_not_unchanged(tmp_path):
    base = [_bench(tmp_path / f"a{i}.json", search_p50_ms=v)
            for i, v in enumerate((0.8, 1.0, 1.3, 1.5))]
    new = _bench(tmp_path / "b.json", search_p50_ms=1.1)
    rows, status = compare.compare(base, [new])
    row = next(r for r in rows if r["metric"] == "search_p50_ms")
    assert row["verdict"] == "unresolved" and status == 0


def test_more_failures_fail_the_comparison(tmp_path, capsys):
    base = _bench(tmp_path / "a.json")
    new = _bench(tmp_path / "b.json", failed_frac=0.0005)
    assert main(["compare", base, new]) == 1
    assert "failed_frac" in capsys.readouterr().out
    assert main(["compare", base, base]) == 0


def test_moved_inputs_ask_for_a_rebaseline(tmp_path, monkeypatch):
    from bench.runner import InputsChanged, run_workload

    pins = tmp_path / "PINS.json"
    key = inputs.pin_key(5, 0.5, 0.05)
    pins.write_text(json.dumps(
        {"engine_replay": {key: {"demand": "0" * 64}}}))
    monkeypatch.setattr(inputs, "PINS_PATH", pins)
    with pytest.raises(InputsChanged, match="inputs changed — re-baseline"):
        run_workload("engine_replay", seed=5, seconds=0.5, scale=0.05)
    # The CLI prints the message instead of a number and exits non-zero.
    assert main(["measure", "--workload", "engine_replay", "--seed", "5",
                 "--seconds", "0.5", "--scale", "0.05"]) == 1


def test_committed_pins_match_generated_inputs():
    """The baseline seeds' inputs still hash to what was pinned."""
    from bench import workloads

    pins = inputs.load_pins()
    assert pins, "bench/baseline/PINS.json is missing"
    city, _region = inputs.build_world()
    for workload, per_key in pins.items():
        for key, digests in per_key.items():
            fields = dict(part.split("=") for part in key.split(","))
            data = workloads.make_inputs(
                workload, city, int(fields["seed"]), float(fields["seconds"]),
                float(fields["scale"]))
            assert data.digests == digests, (workload, key)
