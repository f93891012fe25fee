"""Span arithmetic and wrapper installation."""

import sys
import types

import pytest

import layers
from layers import OP_SPAN, Recorder, Span, Target, install, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0),
             Span("y", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_close_to_traced_wall_time():
    spans = [
        Span(OP_SPAN, 0.0, 8.0),
        Span("experiments.run_experiment", 1.0, 7.0, parent=0,
             attrs={"experiment": "figure2"}),
        Span("workloads.make_workload", 1.5, 3.5, parent=1),
        Span("workloads.calibration_factors", 2.0, 3.0, parent=2),
        Span("sweep.find_peak", 4.0, 6.0, parent=1, attrs={"evaluations": 4}),
        Span("simulator.run", 4.5, 5.5, parent=4, attrs={"requests": 2800}),
        Span(OP_SPAN, 10.0, 11.0),
    ]
    metrics = layers.layer_metrics(spans)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["trace.wall_s"] == pytest.approx(9.0)
    assert self_total == pytest.approx(metrics["trace.wall_s"])
    assert metrics["unattributed.self_s"] == pytest.approx(3.0)
    assert metrics["experiments.figure2.s"] == pytest.approx(6.0)
    assert metrics["sweep.des_runs"] == 1
    assert metrics["sweep.memo_hit_ratio"] == pytest.approx(0.75)
    assert metrics["simulator.us_per_request"] == pytest.approx(1e6 / 2800)


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.core`` defines ``work``; ``fakepkg.user`` imports it by name."""
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return x + 1

    core.work = work

    class Engine:
        def run(self):
            return core.work(1)

    core.Engine = Engine
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    user.call = lambda x: user.work(x)
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_by_name_imports_are_rebound_and_restored(fake_package):
    core, user = fake_package
    original = core.work
    recorder = Recorder()
    uninstall, missing = install(
        recorder,
        [Target("core.work", "fakepkg.core", "work"),
         Target("core.engine", "fakepkg.core", "Engine.run")],
        package="fakepkg")
    assert missing == []
    assert user.call(1) == 2  # through the by-name import
    assert core.Engine().run() == 2
    names = [span.name for span in recorder.spans]
    assert names == ["core.work", "core.engine", "core.work"]
    assert recorder.spans[2].parent == 1
    uninstall()
    assert core.work is original and user.work is original


def test_missing_function_records_no_calls(fake_package):
    recorder = Recorder()
    uninstall, missing = install(
        recorder,
        [Target("gone", "fakepkg.core", "frozen_away"),
         Target("gone.module", "fakepkg.nonexistent", "f")],
        package="fakepkg")
    assert missing == ["fakepkg.core.frozen_away", "fakepkg.nonexistent.f"]
    uninstall()
    metrics = layers.layer_metrics(recorder.spans)
    assert metrics["workloads.calibration_factors.calls"] == 0
    assert all(value == 0 for value in metrics.values())
