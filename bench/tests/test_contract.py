"""BENCHMARK.json against the driver contract and the harness's own names."""

from __future__ import annotations

import json
import re

from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _document():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_shape_and_limits():
    document = _document()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    assert document["paths"] == ["bench"]
    assert 1 <= len(document["command"]) <= 32
    assert isinstance(document["run_seconds"], int)
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in document["workloads"]]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in document["end_to_end"])


def test_file_is_what_the_harness_declares():
    """Names, units, bounds, workloads and their reasons come from the
    harness's own tables; BENCHMARK.json is their committed copy."""
    from bench import contract, workloads

    document = _document()
    assert document == contract.document()
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
