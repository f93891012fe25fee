"""Factory -> dict/YAML -> load -> compile round trips.

Also pins the shipped example specs to the library factories: the YAML
files under ``examples/`` are the serialized forms of
``repro.scenario.library``; editing either side without the other fails
here.
"""

import json
import pathlib

import pytest

from repro.scenario import (
    LIBRARY,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenario.library import (
    ext8_availability,
    multirack_diurnal,
)

REPO = pathlib.Path(__file__).parents[2]

#: library name -> shipped spec file.
SHIPPED_SPECS = {
    "ext8-availability": "examples/scenarios/ext8_availability.yaml",
    "ext10-overload": "examples/scenarios/ext10_overload.yaml",
    "ext11-trace-attribution":
        "examples/scenarios/ext11_trace_attribution.yaml",
    "multirack-diurnal": "examples/multirack_diurnal.yaml",
}

yaml = pytest.importorskip("yaml")


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_dict_roundtrip(name):
    scenario = LIBRARY[name]()
    rebuilt = scenario_from_dict(scenario_to_dict(scenario))
    assert rebuilt == scenario


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_json_roundtrip(name):
    scenario = LIBRARY[name]()
    text = json.dumps(scenario_to_dict(scenario))
    assert scenario_from_dict(json.loads(text)) == scenario


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_yaml_file_roundtrip(tmp_path, name):
    scenario = LIBRARY[name]()
    path = tmp_path / "spec.yaml"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


@pytest.mark.parametrize("name", sorted(SHIPPED_SPECS))
def test_shipped_spec_matches_library(name):
    loaded = load_scenario(REPO / SHIPPED_SPECS[name])
    assert loaded == LIBRARY[name](), (
        f"{SHIPPED_SPECS[name]} has drifted from "
        f"repro.scenario.library.{name!r}; regenerate it with "
        "save_scenario() or update the library factory"
    )


def test_encoding_omits_defaults():
    data = scenario_to_dict(ext8_availability())
    # Tier defaults (platform, dispatch, remote_memory, flash) never
    # appear: only the fields the factory set are encoded.
    tier = data["topology"]["tiers"][0]
    assert tier == {"name": "srvr1", "design": "srvr1", "servers": 6,
                    "clients_per_server": 6, "enclosure_size": 1}
    assert "racks" not in data["topology"]


def test_loaded_scenario_is_frozen():
    scenario = multirack_diurnal()
    with pytest.raises(AttributeError):
        scenario.seed = 2


def test_compiled_plans_match_between_factory_and_yaml(tmp_path):
    scenario = multirack_diurnal()
    path = tmp_path / "flagship.yaml"
    save_scenario(scenario, path)
    from repro.scenario import compile_scenario

    direct = compile_scenario(scenario, quick=True)
    loaded = compile_scenario(load_scenario(path), quick=True)
    assert [p.run_id for p in direct.plans] == [
        p.run_id for p in loaded.plans]
    assert direct.plans == loaded.plans


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario format"):
        save_scenario(ext8_availability(), tmp_path / "spec.toml")


def test_from_dict_requires_name():
    from repro.scenario import ScenarioValidationError

    with pytest.raises(ScenarioValidationError) as excinfo:
        scenario_from_dict({})
    assert any(i.path == "name" for i in excinfo.value.issues)
