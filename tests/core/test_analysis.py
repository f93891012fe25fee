"""Tests of the design-evaluation pipeline."""

import pytest

from repro.core.analysis import evaluate_designs
from repro.core.designs import baseline_design, n2_design
from repro.workloads import _calibrate
from repro.workloads.suite import benchmark_names, make_workload


@pytest.fixture(scope="module")
def evaluation():
    return evaluate_designs(
        [baseline_design("srvr1"), baseline_design("desk"), n2_design()],
        ["webmail", "mapred-wc"],
        baseline="srvr1",
        method="analytic",
    )


class TestEvaluateDesigns:
    def test_all_tables_present(self, evaluation):
        assert set(evaluation.tables) == {
            "Perf", "Perf/Inf-$", "Perf/W", "Perf/P&C-$", "Perf/TCO-$",
        }

    def test_baseline_normalized_to_one(self, evaluation):
        for table in evaluation.tables.values():
            for bench in table.benchmarks:
                assert table.value(bench, "srvr1") == pytest.approx(1.0)

    def test_designs_and_benchmarks_recorded(self, evaluation):
        assert evaluation.designs == ["srvr1", "desk", "N2"]
        assert evaluation.benchmarks == ["webmail", "mapred-wc"]

    def test_metrics_structured_by_benchmark(self, evaluation):
        assert set(evaluation.metrics) == {"webmail", "mapred-wc"}
        m = evaluation.metrics["webmail"]["N2"]
        assert m.performance > 0
        assert m.tco_usd > 0

    def test_n2_wins_mapreduce_perf_per_tco(self, evaluation):
        table = evaluation.table("Perf/TCO-$")
        assert table.value("mapred-wc", "N2") > 2.0

    def test_render_mentions_metric_names(self, evaluation):
        text = evaluation.render(["Perf/TCO-$"])
        assert "Perf/TCO-$" in text
        assert "mapred-wc" in text

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            evaluate_designs(
                [baseline_design("desk")], ["webmail"], baseline="srvr1",
                method="analytic",
            )

    def test_each_benchmark_calibrates_once_per_process(self, monkeypatch):
        """Scoring many designs on the same benchmarks runs each
        benchmark's calibration probe once, not once per grid cell."""
        calls = []
        probe = _calibrate.calibration_factors

        def counting(*args, **kwargs):
            calls.append(1)
            return probe(*args, **kwargs)

        # calibrated_draw, which every benchmark build calls, looks the
        # probe up in its own module.
        monkeypatch.setattr(_calibrate, "calibration_factors", counting)
        make_workload.cache_clear()
        evaluate_designs(
            [baseline_design("srvr1"), baseline_design("desk"),
             baseline_design("emb1")],
            benchmark_names(),
            baseline="srvr1",
            method="analytic",
            jobs=1,
        )
        assert len(calls) == len(benchmark_names()) == 5
