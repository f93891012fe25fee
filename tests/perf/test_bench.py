"""Smoke tests of the benchmark harness and its regression gate."""

import copy

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def document():
    # Tiny workloads: this checks plumbing, not statistics.
    return bench.run_benchmarks(quick=True, e2e=False, jobs=1)


class TestHarness:
    def test_document_shape(self, document):
        assert document["schema"] == 1
        assert document["quick"] is True
        assert {
            "engine_ping",
            "engine_churn",
            "alloc_request_state",
            "alloc_attempt",
            "cluster_surge",
            "trace_overhead",
            "mrc_sweep",
            "flash_replay",
        } <= set(document["results"])

    def test_headline_present_and_positive(self, document):
        headline = document["headline"]
        assert headline["metric"] == "cluster_surge/speedup_vs_scalar"
        assert headline["speedup_vs_scalar"] > 0
        assert headline["speedup_vs_scalar"] == (
            document["results"]["cluster_surge"]["speedup_vs_scalar"]
        )
        assert document["results"]["cluster_surge"]["digest_match"] == 1.0

    def test_slots_shrink_hot_records(self, document):
        for record in ("alloc_request_state", "alloc_attempt"):
            metrics = document["results"][record]
            assert metrics["slotted_bytes_per_obj"] < metrics["dict_bytes_per_obj"]

    def test_kernels_beat_scalar_oracles(self, document):
        # The >=5x acceptance criterion for mrc_sweep is measured in full
        # mode; quick mode guards that the kernels win at all.  The
        # section itself asserts counter equality before reporting.
        assert document["results"]["mrc_sweep"]["speedup_vs_scalar"] > 1.0
        assert document["results"]["flash_replay"]["speedup_vs_scalar"] > 1.0


@pytest.fixture(scope="module")
def pinned(document):
    """``document`` with its timing-derived fields pinned to values that
    clear every gate, so the gate tests check ``check_regression``'s
    logic and not whether one timed quick run cleared the live floors
    (CI's ``repro-bench --check`` jobs gate those)."""
    pinned = copy.deepcopy(document)
    results = pinned["results"]
    results["cluster_surge"]["speedup_vs_scalar"] = 2 * bench.CLUSTER_SURGE_SPEEDUP
    results["cluster_surge"]["sim_ms_per_wall_s"] = 2 * bench.CLUSTER_SURGE_FLOOR
    pinned["headline"]["speedup_vs_scalar"] = 2 * bench.CLUSTER_SURGE_SPEEDUP
    for key in ("mrc_sweep", "flash_replay"):
        results[key]["speedup_vs_scalar"] = 10.0
    for key in ("trace_overhead", "failslow_detect", "rebuild_overhead",
                "scenario_compile"):
        results[key]["overhead_ratio"] = 1.0
    return pinned


class TestRegressionGate:
    def test_passes_against_self(self, pinned):
        assert bench.check_regression(pinned, pinned) == []

    @staticmethod
    def _with_cluster_speedup(document, factor):
        changed = copy.deepcopy(document)
        section = changed["results"]["cluster_surge"]
        section["speedup_vs_scalar"] *= factor
        changed["headline"]["speedup_vs_scalar"] = section["speedup_vs_scalar"]
        return changed

    def test_flags_large_slowdown(self, pinned):
        slowed = self._with_cluster_speedup(pinned, 0.25)
        failures = bench.check_regression(slowed, pinned)
        assert failures and "cohort cluster speedup too low" in failures[0]

    def test_tolerates_small_noise(self, pinned):
        noisy = self._with_cluster_speedup(pinned, 0.9)
        assert bench.check_regression(noisy, pinned) == []

    def test_improvement_never_fails(self, pinned):
        faster = self._with_cluster_speedup(pinned, 2.0)
        assert bench.check_regression(faster, pinned) == []

    def test_flags_cluster_speedup_below_floor(self, pinned):
        # The floor is absolute: just under it fails, just over passes
        # (with the absolute rate clearing the acceptance floor).
        current = copy.deepcopy(pinned)
        section = current["results"]["cluster_surge"]
        section["speedup_vs_scalar"] = bench.CLUSTER_SPEEDUP_FLOOR - 0.01
        failures = bench.check_regression(current, pinned)
        assert len(failures) == 1
        assert "cohort cluster speedup too low" in failures[0]
        section["speedup_vs_scalar"] = bench.CLUSTER_SPEEDUP_FLOOR + 0.01
        assert bench.check_regression(current, pinned) == []

    def test_flags_cluster_digest_mismatch(self, pinned):
        current = copy.deepcopy(pinned)
        current["results"]["cluster_surge"]["digest_match"] = 0.0
        failures = bench.check_regression(current, pinned)
        assert len(failures) == 1
        assert "cluster_surge digest mismatch" in failures[0]

    @pytest.mark.parametrize("key", ("mrc_sweep", "flash_replay"))
    def test_flags_kernel_regression(self, pinned, key):
        slowed = copy.deepcopy(pinned)
        slowed["results"][key]["speedup_vs_scalar"] = (
            pinned["results"][key]["speedup_vs_scalar"]
            * (1 - bench.REGRESSION_TOLERANCE) * 0.9
        )
        failures = bench.check_regression(slowed, pinned)
        assert failures and key in failures[0]

    def test_old_baseline_without_kernel_entries_passes(self, pinned):
        older = copy.deepcopy(pinned)
        del older["results"]["mrc_sweep"]
        del older["results"]["flash_replay"]
        del older["results"]["trace_overhead"]
        assert bench.check_regression(pinned, older) == []

    def test_flags_excess_trace_overhead(self, pinned):
        slowed = copy.deepcopy(pinned)
        slowed["results"]["trace_overhead"]["overhead_ratio"] = (
            bench.TRACE_OVERHEAD_LIMIT * 1.2
        )
        failures = bench.check_regression(slowed, pinned)
        assert failures and "trace overhead" in failures[0]

    def test_trace_overhead_gate_is_absolute_not_relative(self, pinned):
        # The gate compares against TRACE_OVERHEAD_LIMIT, not the
        # baseline's measured ratio: an in-limit ratio passes even if
        # the baseline happened to record a lower one.
        current = copy.deepcopy(pinned)
        current["results"]["trace_overhead"]["overhead_ratio"] = (
            bench.TRACE_OVERHEAD_LIMIT - 0.01
        )
        assert bench.check_regression(current, pinned) == []
