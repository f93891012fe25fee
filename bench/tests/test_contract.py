"""The harness emits exactly the metrics ``BENCHMARK.json`` names."""

import json

import pytest

import layers
import run


@pytest.fixture
def spec():
    return run.load_spec()


def fake_record(mode, wall_s=2.0):
    record = {"mode": mode, "setup_s": 0.25}
    if mode == "setup":
        return record
    record.update(wall_s=wall_s, op_s={"a": wall_s / 2, "b": wall_s / 2},
                  peak_rss_mb=90.0, ops=["a", "b"],
                  digests={"a": "1", "b": "2"}, problems={}, fidelity={})
    if mode == "traced":
        record["layers"] = layers.layer_metrics([])
        record["missing_targets"] = []
    return record


@pytest.fixture
def fake_children(monkeypatch):
    calls = []

    def child(workload, seed, mode):
        calls.append(mode)
        return fake_record(mode)

    monkeypatch.setattr(run, "child", child)
    monkeypatch.setattr(run, "OUT", run.OUT / "test")
    return calls


def test_layers_emit_exactly_the_declared_per_layer_metrics(spec):
    emitted = set(layers.layer_metrics([])) | {"perf.jobs2_wall_s", "trace.overhead_ratio"}
    assert emitted == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_exactly_the_declared_metrics(
        spec, fake_children, capsys, trace):
    args = run.argparse.Namespace(
        workload="paper_figures", seed=3, seconds=None, repeats=2, trace=trace)
    assert run.run_one(args, spec) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert fake_children == ["run", "traced", "jobs2"]
    else:
        assert fake_children.count("run") == 2
        assert len(fake_children) == run.SETUP_SAMPLES


def test_digest_mismatch_counts_as_a_failed_operation(spec, monkeypatch):
    records = iter([fake_record("run"), fake_record("traced"), fake_record("jobs2")])

    def child(workload, seed, mode):
        record = next(records)
        if mode == "jobs2":
            record["digests"]["b"] = "different"
        return record

    monkeypatch.setattr(run, "child", child)
    entry = run.trace("paper_figures", 1)
    assert entry["attempted"] == 6 and entry["failed"] == 1


def test_bounds_follow_the_contract(spec):
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
