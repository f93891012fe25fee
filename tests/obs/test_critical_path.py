"""Critical-path attribution: exclusive times, tail aggregation, rendering."""

import pytest

from repro.cluster import ClusterSimulator
from repro.obs import (
    OTHER,
    SpanKind,
    Trace,
    Tracer,
    attribute_critical_path,
    exclusive_times,
    format_attribution,
)
from repro.platforms import platform
from repro.workloads import make_workload


def _closed_trace(trace_id, total_ms, cpu_ms, disk_ms):
    """request -> attempt -> [cpu, disk], with the remainder uncovered."""
    trace = Trace(trace_id)
    root = trace.start(SpanKind.REQUEST, 0.0)
    attempt = trace.start(SpanKind.ATTEMPT, 0.0, parent=root)
    Trace.finish(trace.start(SpanKind.CPU, 0.0, parent=attempt), cpu_ms)
    Trace.finish(
        trace.start(SpanKind.DISK, cpu_ms, parent=attempt), cpu_ms + disk_ms
    )
    Trace.finish(attempt, total_ms)
    trace.close(total_ms)
    return trace


class TestExclusiveTimes:
    def test_components_plus_other_sum_to_latency(self):
        trace = _closed_trace(0, total_ms=10.0, cpu_ms=4.0, disk_ms=3.0)
        times = exclusive_times(trace)
        assert times[SpanKind.CPU] == pytest.approx(4.0)
        assert times[SpanKind.DISK] == pytest.approx(3.0)
        # request and attempt cover nothing themselves -> "other" = 3.0.
        assert times[OTHER] == pytest.approx(3.0)
        assert sum(times.values()) == pytest.approx(trace.duration_ms)

    def test_non_critical_children_are_excluded(self):
        trace = Trace(0)
        root = trace.start(SpanKind.REQUEST, 0.0)
        loser = trace.start(SpanKind.ATTEMPT, 0.0, parent=root, critical=False)
        Trace.finish(trace.start(SpanKind.CPU, 0.0, parent=loser), 6.0)
        Trace.finish(loser, 6.0)
        winner = trace.start(SpanKind.ATTEMPT, 1.0, parent=root)
        Trace.finish(trace.start(SpanKind.CPU, 1.0, parent=winner), 8.0)
        Trace.finish(winner, 8.0)
        trace.close(8.0)
        times = exclusive_times(trace)
        # Only the winning attempt's 7ms of cpu counts, not the loser's 6.
        assert times[SpanKind.CPU] == pytest.approx(7.0)
        assert sum(times.values()) == pytest.approx(8.0)

    def test_empty_trace(self):
        assert exclusive_times(Trace(0)) == {}

    def test_sum_property_holds_on_a_real_traced_run(self):
        tracer = Tracer(sample_rate=1.0, seed=17)
        ClusterSimulator(
            platform("srvr1"),
            make_workload("websearch"),
            servers=2,
            clients_per_server=6,
            warmup_requests=50,
            measure_requests=300,
            tracer=tracer,
        ).run()
        completed = tracer.completed_traces()
        assert len(completed) > 100
        for trace in completed:
            times = exclusive_times(trace)
            assert sum(times.values()) == pytest.approx(
                trace.duration_ms, rel=1e-9, abs=1e-6
            )


class TestAttribution:
    def _traces(self):
        return [
            _closed_trace(i, total_ms=10.0 + i, cpu_ms=4.0, disk_ms=3.0)
            for i in range(20)
        ]

    def test_percentile_rows_and_tail_sets(self):
        rows = attribute_critical_path(self._traces(), percentiles=(0.5, 0.95))
        p50, p95 = rows
        assert p50.trace_count > p95.trace_count >= 1
        assert p95.latency_ms >= p50.latency_ms
        for row in rows:
            assert sum(row.shares().values()) == pytest.approx(1.0)
            assert row.total_ms == pytest.approx(sum(row.components.values()))

    def test_truncated_and_open_traces_are_skipped(self):
        truncated = _closed_trace(99, 50.0, 4.0, 3.0)
        truncated.status = "truncated"
        open_trace = Trace(100)
        open_trace.start(SpanKind.REQUEST, 0.0)
        rows = attribute_critical_path(
            self._traces() + [truncated, open_trace], percentiles=(0.99,)
        )
        assert rows[0].latency_ms < 50.0

    def test_no_traces_gives_no_rows(self):
        assert attribute_critical_path([]) == []

    def test_invalid_percentile_raises(self):
        with pytest.raises(ValueError):
            attribute_critical_path(self._traces(), percentiles=(1.5,))


class TestFormatting:
    def test_table_lists_only_nonzero_components(self):
        text = format_attribution(attribute_critical_path(
            [_closed_trace(0, 10.0, 4.0, 3.0)]
        ))
        assert "cpu" in text and "disk" in text and "other" in text
        assert "flash" not in text

    def test_empty_input_renders_placeholder(self):
        assert format_attribution([]) == "(no complete traces)"
