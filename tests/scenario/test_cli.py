"""The ``repro-scenario`` CLI: validate, describe, run, exports."""

import json
import pathlib

import pytest

from repro.scenario import save_scenario
from repro.scenario.cli import main
from repro.scenario.spec import (
    ClosedLoopSpec,
    FaultsSpec,
    OverlaySpec,
    Scenario,
    TierSpec,
    TopologySpec,
    TracingSpec,
    TrafficSpec,
    WorkloadSpec,
)

REPO = pathlib.Path(__file__).parents[2]


def _tiny_scenario(tracing: bool = False):
    overlay = OverlaySpec()
    if tracing:
        overlay = OverlaySpec(
            "traced",
            faults=FaultsSpec(profile="stress", fault_seed=7),
            tracing=TracingSpec(sample_rate=1.0, trace_seed=17),
        )
    return Scenario(
        name="tiny",
        topology=TopologySpec(tiers=(
            TierSpec("web", design="N1", servers=2, clients_per_server=2),
        )),
        workload=WorkloadSpec(benchmark="websearch"),
        traffic=TrafficSpec(closed_loop=ClosedLoopSpec(10, 40)),
        overlays=(overlay,),
    ).check()


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "multirack-diurnal" in out
    assert "ext8-availability" in out


def test_validate_shipped_specs(capsys):
    pytest.importorskip("yaml")
    specs = [
        str(REPO / "examples/scenarios/ext8_availability.yaml"),
        str(REPO / "examples/scenarios/ext10_overload.yaml"),
        str(REPO / "examples/scenarios/ext11_trace_attribution.yaml"),
        str(REPO / "examples/multirack_diurnal.yaml"),
    ]
    assert main(["validate"] + specs) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == len(specs)


def test_validate_reports_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "topology": {"tiers": [{"name": "w", "platform": "n3"}]},
        "workload": {"benchmark": "websearch"},
        "traffic": {"closed_loop": {}},
    }))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "topology.tiers[0].platform" in out


@pytest.mark.parametrize("command", ["run", "describe"])
def test_invalid_spec_file_reports_issues(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "topology": {"tiers": ["web"]},
        "workload": {"benchmark": "websearch"},
        "traffic": {"closed_loop": {}},
    }))
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario failed validation" in err
    assert "topology.tiers[0]: expected a mapping for TierSpec" in err


def test_describe_shows_runs(tmp_path, capsys):
    spec = tmp_path / "tiny.json"
    save_scenario(_tiny_scenario(), spec)
    assert main(["describe", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "web/baseline" in out


def test_run_with_digest_and_outputs(tmp_path, capsys):
    spec = tmp_path / "tiny.json"
    save_scenario(_tiny_scenario(tracing=True), spec)
    out_dir = tmp_path / "out"
    assert main(["run", str(spec), "--output", str(out_dir)]) == 0
    first = capsys.readouterr().out

    payload = json.loads((out_dir / "result.json").read_text())
    assert payload["scenario"] == "tiny"
    assert payload["digest"]

    # Trace exports exist and the Chrome trace validates.
    assert (out_dir / "spans.jsonl").exists()
    from repro.obs.export import validate_chrome_trace

    document = json.loads((out_dir / "trace.json").read_text())
    assert validate_chrome_trace(document) == []

    # Re-running with --expect-digest on the reported digest passes...
    assert main(["run", str(spec),
                 "--expect-digest", payload["digest"]]) == 0
    assert "digest matches" in capsys.readouterr().out
    # ...and a wrong digest fails.
    assert main(["run", str(spec), "--expect-digest", "0" * 64]) == 1
    assert "digest mismatch" in capsys.readouterr().err
    assert "digest: " + payload["digest"] in first


def test_unknown_scenario_errors():
    with pytest.raises(SystemExit, match="neither a library scenario"):
        main(["run", "no-such-scenario"])
