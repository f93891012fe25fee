"""Tests of the critical-path attribution experiment (EXT-11)."""

import pytest

from repro.experiments import trace_attribution
from repro.experiments.trace_attribution import PERCENTILES, summarize
from repro.scenario import run_scenario
from repro.scenario.library import ext11_trace_attribution

_SHRUNK = dict(servers=3, clients_per_server=5, warmup=100, measure=600)


@pytest.fixture(scope="module")
def result():
    # Shrunk cluster/window so the traced srvr1/N1/N2 sweep stays fast;
    # jobs=2 doubles as a worker-process pickling check.
    return trace_attribution.run(jobs=2, **_SHRUNK)


class TestTraceAttributionExperiment:
    def test_reports_every_design(self, result):
        for name in ("srvr1", "N1", "N2"):
            summary = result.data[name]
            assert summary["completed_traces"] > 0
            assert summary["requests_seen"] >= summary["traces"]
            assert summary["per_server_rps"] > 0

    def test_shares_sum_to_one_at_every_percentile(self, result):
        for name in ("srvr1", "N1", "N2"):
            attribution = result.data[name]["attribution"]
            for percentile in PERCENTILES:
                row = attribution[f"p{percentile * 100:g}"]
                assert row["share_sum"] == pytest.approx(1.0)
                assert row["mean_tail_ms"] == pytest.approx(
                    sum(row["components_ms"].values())
                )
                assert row["latency_ms"] > 0

    def test_tail_latency_is_monotone_in_percentile(self, result):
        for name in ("srvr1", "N1", "N2"):
            attribution = result.data[name]["attribution"]
            latencies = [
                attribution[f"p{p * 100:g}"]["latency_ms"]
                for p in sorted(PERCENTILES)
            ]
            assert latencies == sorted(latencies)

    def test_sections_render(self, result):
        for name in ("srvr1", "N1", "N2"):
            assert f"critical-path attribution -- {name}" in result.sections
        assert "p99 critical path by design" in result.sections
        assert "conclusion" in result.sections
        rendered = result.render()
        assert "p99" in rendered and "retry" in rendered

    def test_combined_metrics_cover_the_fleet(self, result):
        combined = result.data["combined"]
        assert combined["served"] > 0
        assert combined["response_p99_ms"] > 0

    def test_documented_parameters(self, result):
        assert result.data["workload"] == "websearch"
        assert result.data["fault_profile"] == "stress-60s-window"
        assert result.data["sample_rate"] == 1.0
        assert result.experiment_id == "EXT-11"

    def test_serial_rerun_reproduces_the_parallel_digest(self, result):
        records = run_scenario(ext11_trace_attribution(**_SHRUNK)).runs
        assert [record.tier for record in records] == ["srvr1", "N1", "N2"]
        for record in records:
            assert (summarize(record)["trace_digest"]
                    == result.data[record.tier]["trace_digest"])
