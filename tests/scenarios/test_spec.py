"""ScenarioSpec serialization: round-trips, file loading, validation."""

from __future__ import annotations

import pytest

from repro.exceptions import ScenarioError
from repro.scenarios import (
    CitySpec,
    DemandSpec,
    FaultSpec,
    ScenarioSpec,
    SupplySpec,
    pinned_names,
    pinned_scenario,
)

try:
    import tomllib
except ImportError:
    tomllib = None


TOML_TEXT = """\
name = "toml_spec"
facade = "xar"
seed = 3

[city]
kind = "lattice"
avenues = 5
streets = 10

[supply]
fleet = 6
seats = 4

[demand]
workload = "corridor"
requests = 20
budget_scales = [0.5, 1.0]

[asserts]
min_booked = 1
"""


@pytest.mark.parametrize("name", pinned_names())
def test_every_pinned_spec_round_trips_through_json(name):
    spec = pinned_scenario(name)
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_round_trip_preserves_nested_tuples():
    spec = ScenarioSpec(
        name="tuples",
        demand=DemandSpec(
            budget_scales=(0.5, None, 1.0),
            surge=(0.0, 300.0, 2.0),
            cancel_storm=(100.0, 400.0, 0.5),
        ),
    )
    again = ScenarioSpec.from_json(spec.to_json())
    assert again.demand.budget_scales == (0.5, None, 1.0)
    assert again.demand.surge == (0.0, 300.0, 2.0)
    assert again == spec


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        ScenarioSpec.from_dict({"name": "x", "nope": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ScenarioError, match="unknown keys in scenario "
                                            "section 'demand'"):
        ScenarioSpec.from_dict({"name": "x", "demand": {"requsets": 10}})
    with pytest.raises(ScenarioError,
                       match=r"section 'faults': \['resilient'\]"):
        ScenarioSpec.from_dict({"name": "x", "faults": {"resilient": True}})


def test_invalid_json_raises_scenario_error():
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        ScenarioSpec.from_json("{not json")


@pytest.mark.parametrize("facade", ["sharded", "shard0", "procx", "warp"])
def test_malformed_facades_rejected(facade):
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", facade=facade).validate()


def test_every_facade_the_harness_builds_is_a_valid_scenario_facade():
    from repro.verify import FACADE_NAMES

    for facade in FACADE_NAMES:
        ScenarioSpec(name="x", facade=facade).validate()


def test_bad_fault_policy_is_a_scenario_error(small_region):
    from repro.scenarios import build_facade

    for policies, name in (("dropout=0.1,warp", "warp"),
                           ("router=0.05", "router")):
        spec = ScenarioSpec(name="x", faults=FaultSpec(policies=policies))
        with pytest.raises(ScenarioError,
                           match=f"unknown fault policy '{name}'"):
            build_facade(spec, small_region)


def test_crash_injection_needs_a_proc_facade():
    spec = ScenarioSpec(name="x", facade="shard2",
                        faults=FaultSpec(crash_every=10))
    with pytest.raises(ScenarioError, match="crash-capable"):
        spec.validate()
    ScenarioSpec(name="x", facade="proc2",
                 faults=FaultSpec(crash_every=10)).validate()


def test_section_validation_catches_bad_values():
    with pytest.raises(ScenarioError, match="unknown workload"):
        ScenarioSpec(name="x", demand=DemandSpec(workload="rush")).validate()
    with pytest.raises(ScenarioError, match="multiplier"):
        ScenarioSpec(
            name="x", demand=DemandSpec(surge=(0.0, 10.0, 0.5))
        ).validate()
    with pytest.raises(ScenarioError, match="fraction"):
        ScenarioSpec(
            name="x", demand=DemandSpec(cancel_storm=(0.0, 10.0, 1.5))
        ).validate()
    with pytest.raises(ScenarioError, match="end > start"):
        ScenarioSpec(
            name="x", demand=DemandSpec(surge=(500.0, 100.0, 2.0))
        ).validate()
    with pytest.raises(ScenarioError, match="2x2"):
        ScenarioSpec(name="x", city=CitySpec(avenues=1)).validate()
    with pytest.raises(ScenarioError, match="bridge"):
        ScenarioSpec(name="x", city=CitySpec(kind="twin",
                                             bridges=0)).validate()
    with pytest.raises(ScenarioError, match="seats"):
        ScenarioSpec(name="x", supply=SupplySpec(seats=0)).validate()


def test_load_json_file(tmp_path):
    spec = pinned_scenario("smoke_tiny")
    path = tmp_path / "smoke.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    assert ScenarioSpec.load(str(path)) == spec


def test_load_toml_file(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(TOML_TEXT, encoding="utf-8")
    if tomllib is None:
        with pytest.raises(ScenarioError, match="tomllib"):
            ScenarioSpec.load(str(path))
        return
    spec = ScenarioSpec.load(str(path))
    assert spec.name == "toml_spec"
    assert spec.supply.seats == 4
    assert spec.demand.budget_scales == (0.5, 1.0)
    # TOML and JSON declarations of the same scenario agree.
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_pinned_grid_is_well_formed():
    names = pinned_names()
    assert len(names) >= 8, "the CI sweep promises at least 8 pinned specs"
    assert "smoke_tiny" in names
    for name in names:
        spec = pinned_scenario(name)
        spec.validate()
        assert spec.name == name


def test_unknown_pinned_name_raises():
    with pytest.raises(ScenarioError, match="unknown pinned scenario"):
        pinned_scenario("definitely_not_pinned")
