"""Tracing must observe without perturbing: identical results, stable logs."""

import pytest

from repro.cluster import ClusterSimulator, RetryPolicy
from repro.faults import STRESS_FAULT_PROFILE
from repro.obs import MetricsRegistry, Tracer, exclusive_times, spans_jsonl
from repro.platforms import platform
from repro.workloads import make_workload


def _cluster_run(tracer=None, metrics=None):
    """A small faulted cluster with retries + hedging (the hard case)."""
    return ClusterSimulator(
        platform("srvr1"),
        make_workload("websearch"),
        servers=3,
        clients_per_server=5,
        seed=11,
        warmup_requests=100,
        measure_requests=600,
        faults=STRESS_FAULT_PROFILE,
        fault_seed=7,
        retry=RetryPolicy(timeout_ms=500.0, max_retries=3,
                          backoff_base_ms=20.0, hedge_after_ms=250.0),
        enclosure_size=3,
        tracer=tracer,
        metrics=metrics,
    ).run()


class TestClusterDeterminism:
    def test_traced_run_matches_untraced_run_exactly(self):
        untraced = _cluster_run()
        traced = _cluster_run(tracer=Tracer(sample_rate=1.0, seed=17),
                              metrics=MetricsRegistry())
        assert traced == untraced

    def test_partial_sampling_also_leaves_results_untouched(self):
        untraced = _cluster_run()
        traced = _cluster_run(tracer=Tracer(sample_rate=0.1, seed=17))
        assert traced == untraced

    def test_same_seed_gives_byte_identical_span_logs(self):
        logs = []
        for _ in range(2):
            tracer = Tracer(sample_rate=1.0, seed=17)
            _cluster_run(tracer=tracer)
            logs.append(spans_jsonl([("run", tracer.traces)]))
        assert logs[0] == logs[1]
        assert logs[0]  # non-empty: the run actually traced something

    def test_every_completed_trace_decomposes_exactly(self):
        tracer = Tracer(sample_rate=1.0, seed=17)
        _cluster_run(tracer=tracer)
        completed = tracer.completed_traces()
        assert len(completed) > 300
        for trace in completed:
            total = sum(exclusive_times(trace).values())
            assert total == pytest.approx(
                trace.duration_ms, rel=1e-9, abs=1e-6
            ), f"trace {trace.trace_id} ({trace.status})"

    def test_gave_up_requests_still_account_their_wait(self):
        # Requests that exhaust every retry must charge their elapsed
        # time somewhere (the gave-up wait lands on ``retry``), not
        # leak it into an untyped remainder.  A brutally short timeout
        # with hedging forces plenty of give-ups, including the tricky
        # case where every timed-out attempt overlapped a live hedge.
        from repro.cluster.balancer import RetryPolicy

        tracer = Tracer(sample_rate=1.0, seed=17)
        result = ClusterSimulator(
            platform("srvr1"),
            make_workload("websearch"),
            servers=3,
            clients_per_server=5,
            seed=11,
            warmup_requests=100,
            measure_requests=600,
            retry=RetryPolicy(
                timeout_ms=30.0, max_retries=1, hedge_after_ms=15.0
            ),
            tracer=tracer,
        ).run()
        assert result.fault_report.gave_up > 0
        gave_up = [
            t for t in tracer.completed_traces() if t.status == "gave_up"
        ]
        assert gave_up
        for trace in gave_up:
            times = exclusive_times(trace)
            assert sum(times.values()) == pytest.approx(trace.duration_ms)
            assert times.get("retry", 0.0) > 0.0

