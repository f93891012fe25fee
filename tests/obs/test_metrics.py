"""Labeled metrics registry: identity, typing, lossless merge."""

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry
from repro.simulator.telemetry import LatencyHistogram


class TestRegistration:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", outcome="served")
        second = registry.counter("requests", outcome="served")
        assert first is second

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", role="cpu", server="0")
        b = registry.counter("x", server="0", role="cpu")
        assert a is b

    def test_distinct_labels_are_distinct_instruments(self):
        registry = MetricsRegistry()
        served = registry.counter("requests", outcome="served")
        shed = registry.counter("requests", outcome="shed")
        assert served is not shed
        assert len(registry) == 2

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(TypeError):
            registry.gauge("depth")

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)


class TestInspection:
    def test_value_reads_scalars_and_rejects_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(7.5)
        registry.histogram("h").record(3.0)
        assert registry.value("c") == 2.0
        assert registry.value("g") == 7.5
        assert registry.value("missing") is None
        with pytest.raises(TypeError):
            registry.value("h")

    def test_snapshot_covers_every_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").record(5.0)
        types = {entry["type"] for entry in registry.snapshot()}
        assert types == {"counter", "gauge", "histogram"}

    def test_empty_histogram_snapshot_uses_none_not_crash(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        (entry,) = registry.snapshot()
        assert entry["count"] == 0
        assert entry["p99_ms"] is None

    def test_render_mentions_names_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("requests", outcome="served").inc(3)
        text = registry.render()
        assert "requests{outcome=served} 3" in text


class TestMerge:
    def test_counters_add_and_gauges_take_max(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        left.gauge("g").set(4.0)
        right.gauge("g").set(1.5)
        left.merge(right)
        assert left.value("c") == 5.0
        assert left.value("g") == 4.0

    def test_histograms_merge_losslessly(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        reference = LatencyHistogram()
        for value, target in ((5.0, left), (500.0, right), (50.0, right)):
            target.histogram("h").record(value)
            reference.record(value)
        left.merge(right)
        merged = left.get("h")
        assert merged.count == 3
        assert merged.percentile_ms(0.99) == reference.percentile_ms(0.99)

    def test_new_keys_are_deep_copied_not_aliased(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        right.counter("only-right").inc(1)
        left.merge(right)
        left.counter("only-right").inc(10)
        assert right.value("only-right") == 1.0

    def test_type_mismatch_raises(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("x")
        right.gauge("x")
        with pytest.raises(TypeError):
            left.merge(right)

    def test_merge_returns_self_for_reduce_chaining(self):
        left = MetricsRegistry()
        assert left.merge(MetricsRegistry()) is left

    def test_instrument_classes_exported(self):
        assert isinstance(MetricsRegistry().counter("c"), Counter)
        assert isinstance(MetricsRegistry().gauge("g"), Gauge)
